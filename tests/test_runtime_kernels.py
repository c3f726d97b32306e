"""The numpy kernels of ``repro.runtime.kernels`` against their definitions.

Every compiled plan step calls these kernels directly, and each one is a
rewrite of a simple definition for speed: EdgeConv reduces the neighbour
half in closed form, the int8 matmul runs as a float sgemm, pooling folds
``1/per_graph`` into one float32 multiplier.  Each test below computes the
definition literally — per element, per row or per node, in python
integers where the arithmetic is integer — and compares:

* integer outputs (quantize, int8 linear requantize, int8 EdgeConv) are
  compared bit for bit;
* float outputs are compared to <= 1e-6, the rounding of one reordered
  float32 sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import kernels

REDUCES = ("max", "add", "mean")


def _quantize_ref(x, scale):
    """``clip(round_half_even(x / scale), -127, 127)``, one element at a time."""
    t = x.dtype.type
    out = np.empty(x.shape, np.int8)
    for idx, value in np.ndenumerate(x):
        q = round(float(value / t(scale)))  # python round: ties to even
        out[idx] = max(-kernels.QMAX_INT8, min(kernels.QMAX_INT8, q))
    return out


def _quant_linear_ref(xq, wq, w_scale, x_scale, bias, activation, slope,
                      out_scale, acc_dtype):
    """Exact integer dot products, then scale, bias, activate and requantize
    in the accumulator dtype — one output element at a time."""
    t = np.dtype(acc_dtype).type
    mult = w_scale * np.float32(x_scale)
    rows, cols = xq.shape[0], wq.shape[1]
    acc = np.empty((rows, cols), acc_dtype)
    for i in range(rows):
        for j in range(cols):
            dot = sum(int(a) * int(b) for a, b in zip(xq[i], wq[:, j]))
            value = t(dot) * t(mult[j]) + t(bias[j])
            if activation == "relu":
                value = max(value, t(0))
            elif activation == "leaky_relu" and not value > 0:
                value = value * t(slope)
            acc[i, j] = value
    if out_scale is not None:
        return _quantize_ref(acc, out_scale)
    return acc.astype(np.float32)


def _edgeconv_ref(x, src, k, reduce):
    """``reduce_j [x_i, x_j - x_i]`` over node ``i``'s ``k`` neighbours,
    messages materialized node by node.  Integer input reduces in python
    integers, and ``mean`` is left as the sum: the int8 kernel's caller
    folds the ``1/k`` into the output scale."""
    num_nodes, features = x.shape
    integer = np.issubdtype(x.dtype, np.integer)
    rows = []
    for i in range(num_nodes):
        centre = x[i].astype(np.int64) if integer else x[i]
        messages = [np.concatenate([centre, x[src[i * k + j]] - centre])
                    for j in range(k)]
        if reduce == "max":
            rows.append(np.max(messages, axis=0))
        elif reduce == "mean" and not integer:
            rows.append(np.mean(messages, axis=0))
        else:
            rows.append(np.sum(messages, axis=0))
    return np.stack(rows)


class TestQuantizeKernels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_matches_definition(self, dtype):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal((9, 5)) * 2.5).astype(dtype)
        scale = 0.0371
        out = kernels.quantize_array(x, scale, x.copy(),
                                     np.empty(x.shape, np.int8))
        np.testing.assert_array_equal(out, _quantize_ref(x, scale))

    def test_quantize_rounds_ties_to_even_and_saturates_symmetric(self):
        # scale 0.25 makes every x / scale exact: the halves are true ties.
        x = np.array([0.125, 0.375, 0.625, -0.125, -0.375, 1e3, -1e3],
                     np.float32)
        out = kernels.quantize_array(x, 0.25, x.copy(),
                                     np.empty(x.shape, np.int8))
        np.testing.assert_array_equal(out, [0, 2, 2, 0, -2, 127, -127])
        assert out.min() > np.iinfo(np.int8).min  # -128 is never emitted

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dequantize_matches_definition(self, dtype):
        rng = np.random.default_rng(8)
        xq = rng.integers(-127, 128, size=(7, 4)).astype(np.int8)
        scale = 0.021
        out = kernels.dequantize_array(xq, scale, np.empty(xq.shape, dtype))
        t = np.dtype(dtype).type
        expected = np.array([[t(int(q)) * t(scale) for q in row]
                             for row in xq], dtype)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expected)


class TestQuantLinearKernel:
    def _case(self, rows, kdim, cols, seed):
        rng = np.random.default_rng(seed)
        xq = rng.integers(-127, 128, size=(rows, kdim)).astype(np.int8)
        wq = rng.integers(-127, 128, size=(kdim, cols)).astype(np.int8)
        w_scale = rng.uniform(0.01, 0.1, cols).astype(np.float32)
        bias = rng.standard_normal(cols).astype(np.float32)
        return xq, wq, w_scale, bias

    def _run(self, xq, wq, w_scale, x_scale, bias, activation, slope,
             out_scale, acc_dtype):
        rows, kdim, cols = xq.shape[0], xq.shape[1], wq.shape[1]
        acc = np.empty((rows, cols), acc_dtype)
        # A float32 plan lets the logits land in the accumulator itself.
        out32 = acc if acc_dtype == np.float32 else np.empty((rows, cols),
                                                             np.float32)
        return kernels.quant_fused_linear(
            xq, wq.astype(acc_dtype), w_scale, x_scale, bias,
            np.empty((rows, kdim), acc_dtype), acc, activation, slope,
            out_scale, np.empty((rows, cols), np.int8), out32)

    @pytest.mark.parametrize("activation", [None, "relu", "leaky_relu"])
    @pytest.mark.parametrize("requantize", [True, False])
    def test_float32_accumulator_matches_definition(self, activation,
                                                    requantize):
        xq, wq, w_scale, bias = self._case(6, 8, 5, seed=7)
        out_scale = 0.11 if requantize else None
        args = (xq, wq, w_scale, 0.05, bias, activation, 0.2, out_scale)
        got = self._run(*args, np.float32)
        expected = _quant_linear_ref(*args, np.float32)
        if requantize:
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, expected)
        else:
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("requantize", [True, False])
    def test_float64_accumulator_matches_definition(self, requantize):
        xq, wq, w_scale, bias = self._case(5, 40, 4, seed=9)
        out_scale = 0.6 if requantize else None
        args = (xq, wq, w_scale, 0.04, bias, "relu", 0.0, out_scale)
        got = self._run(*args, np.float64)
        expected = _quant_linear_ref(*args, np.float64)
        if requantize:
            np.testing.assert_array_equal(got, expected)
        else:
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)


class TestEdgeConvKernels:
    num_nodes, k, features = 6, 3, 4

    def _src(self, rng):
        return rng.integers(0, self.num_nodes,
                            size=self.num_nodes * self.k).astype(np.int64)

    @pytest.mark.parametrize("reduce", REDUCES)
    def test_float_edgeconv_matches_definition(self, reduce):
        rng = np.random.default_rng(7)
        n, k, f = self.num_nodes, self.k, self.features
        x = rng.standard_normal((n, f)).astype(np.float32)
        src = self._src(rng)
        out = kernels.edgeconv_uniform(x, src, k, reduce,
                                       np.empty((k, n, f), np.float32),
                                       np.empty((n, 2 * f), np.float32))
        np.testing.assert_allclose(out, _edgeconv_ref(x, src, k, reduce),
                                   rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("reduce", REDUCES)
    def test_int8_edgeconv_matches_definition(self, reduce):
        rng = np.random.default_rng(11)
        n, k, f = self.num_nodes, self.k, self.features
        xq = rng.integers(-127, 128, size=(n, f)).astype(np.int8)
        src = self._src(rng)
        out = kernels.quant_edgeconv_uniform(xq, src, k, reduce,
                                             np.empty((k, n, f), np.int8),
                                             np.empty((n, 2 * f), np.int16))
        np.testing.assert_array_equal(out, _edgeconv_ref(xq, src, k, reduce))

    @pytest.mark.parametrize("reduce", REDUCES)
    def test_int8_edgeconv_dequantizes_to_float_edgeconv(self, reduce):
        """The contract with the plan: int8 EdgeConv output times the input
        scale (times ``1/k`` for ``mean``) is the float kernel's output on
        the dequantized input.  A power-of-two scale keeps both exact."""
        rng = np.random.default_rng(12)
        n, k, f = self.num_nodes, self.k, self.features
        xq = rng.integers(-127, 128, size=(n, f)).astype(np.int8)
        src = self._src(rng)
        scale = 2.0 ** -6
        quant = kernels.quant_edgeconv_uniform(
            xq, src, k, reduce, np.empty((k, n, f), np.int8),
            np.empty((n, 2 * f), np.int16))
        x = xq.astype(np.float64) * scale
        float_out = kernels.edgeconv_uniform(
            x, src, k, reduce, np.empty((k, n, f)), np.empty((n, 2 * f)))
        out_scale = scale / k if reduce == "mean" else scale
        np.testing.assert_allclose(quant * out_scale, float_out,
                                   rtol=0, atol=1e-12)


class TestQuantPoolKernel:
    @pytest.mark.parametrize("mode", ["max", "add", "mean", "max||mean"])
    def test_pool_matches_definition(self, mode):
        rng = np.random.default_rng(13)
        num_graphs, per_graph, features = 3, 5, 4
        xq = rng.integers(-127, 128, size=(num_graphs * per_graph,
                                           features)).astype(np.int8)
        scale = 0.037
        width = 2 * features if mode == "max||mean" else features
        out = kernels.quant_pool_uniform(
            xq, num_graphs, per_graph, mode, scale,
            np.empty((num_graphs, features), np.int64),
            np.empty((num_graphs, width), np.float32))
        rows = []
        for g in range(num_graphs):
            block = xq[g * per_graph:(g + 1) * per_graph].astype(np.int64)
            pooled = {"max": block.max(axis=0) * scale,
                      "add": block.sum(axis=0) * scale,
                      "mean": block.sum(axis=0) * scale / per_graph}
            rows.append(np.concatenate([pooled["max"], pooled["mean"]])
                        if mode == "max||mean" else pooled[mode])
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, np.stack(rows), rtol=1e-6, atol=1e-6)
