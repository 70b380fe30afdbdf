"""RL004 false-positive guards: the size constants packet.py uses."""

HEADER_BYTES = 46
LS_ENTRY_BYTES = 10
