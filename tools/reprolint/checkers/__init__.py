"""Checker modules — importing this package registers all of them."""

from . import (arena_aliasing, dtype_discipline, layering,  # noqa: F401
               lock_discipline, message_kinds, results_hygiene,
               sleep_discipline, take_mode)
