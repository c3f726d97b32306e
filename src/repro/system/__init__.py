"""Co-inference system layer: simulator, partitioning, wire format, transport,
scheduling, engine."""

from .simulator import (SystemConfig, SystemPerformance, CoInferenceSimulator,
                        OpTimelineEntry, make_system, DEVICE, EDGE)
from .partition import (PartitionResult, insert_partition, candidate_partitions,
                        evaluate_partitions, best_partition)
from .messages import (Message, serialize_message, deserialize_message,
                       compressed_size, WIRE_FORMAT_RAW, WIRE_FORMAT_ZLIB,
                       WIRE_FORMATS)
from .transport import FRONTEND_ASYNC, FRONTEND_THREADED, FRONTENDS
from .knobs import QosConfig
from .scheduler import (BackpressureError, FrameExpiredError, Scheduler,
                        SchedulerSnapshot)
from .engine import (EdgeServer, DeviceClient, FrameResult, MicroBatcher,
                     PipelineStats, RequestRejectedError, ServingSession,
                     ServingTable, EdgeServerStats, run_co_inference)

__all__ = [
    "SystemConfig", "SystemPerformance", "CoInferenceSimulator",
    "OpTimelineEntry", "make_system", "DEVICE", "EDGE",
    "PartitionResult", "insert_partition", "candidate_partitions",
    "evaluate_partitions", "best_partition",
    "Message", "serialize_message", "deserialize_message", "compressed_size",
    "WIRE_FORMAT_RAW", "WIRE_FORMAT_ZLIB", "WIRE_FORMATS",
    "FRONTEND_ASYNC", "FRONTEND_THREADED", "FRONTENDS",
    "BackpressureError", "FrameExpiredError", "QosConfig", "Scheduler",
    "SchedulerSnapshot",
    "EdgeServer", "DeviceClient", "FrameResult", "MicroBatcher",
    "PipelineStats", "RequestRejectedError", "ServingSession", "ServingTable",
    "EdgeServerStats", "run_co_inference",
]
