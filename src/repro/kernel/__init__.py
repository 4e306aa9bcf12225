"""The SenSmart kernel runtime.

Cooperates with the binary rewriter: every patched site in a naturalized
program traps into this runtime, which implements logical addressing,
software-trap preemptive scheduling, and versatile stack management
(paper Section IV).
"""

from .config import KernelConfig
from .kernel import SenSmartKernel
from .node import SensorNode, state_digest
from .regions import MemoryRegion, RegionTable
from .task import Task, TaskState
from .termination import RESTART_POLICIES, TerminationReason

__all__ = [
    "KernelConfig", "SenSmartKernel", "SensorNode", "state_digest",
    "MemoryRegion", "RegionTable", "Task", "TaskState",
    "TerminationReason", "RESTART_POLICIES",
]
