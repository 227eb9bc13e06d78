"""Syscall-layer I/O tracing — the BCC/eBPF equivalent.

FragPicker's analysis phase needs, per I/O syscall: the I/O type, inode
number, size, start offset, and whether it was O_DIRECT (Section 4.1.1).
The filesystem's probe already emits all of that as a
:class:`~repro.fs.base.SyscallEvent`; :class:`SyscallMonitor` attaches a
probe and keeps the I/O events it accepts, optionally filtered to
specific applications — mirroring BCC's ability to trace one process.
"""

from .syscall_monitor import SyscallMonitor

__all__ = ["SyscallMonitor"]
