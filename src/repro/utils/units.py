"""Unit constants used across the simulator."""

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

