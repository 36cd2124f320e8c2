"""Test-session setup shared by every test directory.

The reference list scheduler (``tests/timing/sched_oracle.py``) is
imported by tests outside ``tests/timing/`` too, so its directory goes
on ``sys.path`` once, here.
"""

import os
import sys

ORACLE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "timing")
if ORACLE_DIR not in sys.path:
    sys.path.insert(0, ORACLE_DIR)
