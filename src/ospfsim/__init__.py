"""Executable link-state protocol models, a deterministic discrete-time
network engine, and a bounded exhaustive explorer.

The package namespace is empty: import each name from its module, such
as ``ospfsim.engine``, ``ospfsim.topology`` or ``ospfsim.explorer``."""
