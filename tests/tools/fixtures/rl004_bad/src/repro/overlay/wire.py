"""RL004 fixture: a wire module without the name packet.py asks for."""

HEADER_BYTES = 46
