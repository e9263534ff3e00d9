"""Timers and testers — the feedback half of the empirical loop."""

from .timer import KernelTiming, Timer, default_n, paper_n
from .tester import (DEFAULT_SIZES, make_inputs, test_function, test_kernel)

__all__ = ["KernelTiming", "Timer", "default_n", "paper_n", "DEFAULT_SIZES",
           "make_inputs", "test_function", "test_kernel"]
