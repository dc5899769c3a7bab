"""The CONGEST model simulator (synchronous message passing, O(log n)-bit messages)."""

from .errors import (
    BandwidthExceededError,
    CongestError,
    FaultSpecError,
    MessageCorruptionError,
    ProtocolViolationError,
    RetransmitBudgetExceededError,
    RoundLimitExceededError,
)
from .faults import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    FaultState,
    FaultStats,
    LinkOutage,
    default_fault_injector,
    fault_override,
)
from .message import (
    Message,
    decode_payload,
    encode_payload,
    flip_bit,
    payload_bits,
    payload_words,
    word_bits,
)
from .metrics import Charge, RoundMetrics
from .network import (
    SCHEDULERS,
    CongestNetwork,
    default_scheduler,
    run_program,
    scheduler_override,
)
from .node import NodeProgram
from .pipelining import stream_rounds
from .reliable import ReliableProgram, run_reliable

__all__ = [
    "CongestNetwork",
    "NodeProgram",
    "RoundMetrics",
    "Charge",
    "run_program",
    "SCHEDULERS",
    "default_scheduler",
    "scheduler_override",
    "payload_words",
    "payload_bits",
    "word_bits",
    "Message",
    "encode_payload",
    "decode_payload",
    "flip_bit",
    "FaultPlan",
    "FaultInjector",
    "FaultState",
    "FaultStats",
    "CrashWindow",
    "LinkOutage",
    "fault_override",
    "default_fault_injector",
    "ReliableProgram",
    "run_reliable",
    "stream_rounds",
    "CongestError",
    "BandwidthExceededError",
    "RoundLimitExceededError",
    "ProtocolViolationError",
    "MessageCorruptionError",
    "RetransmitBudgetExceededError",
    "FaultSpecError",
]
