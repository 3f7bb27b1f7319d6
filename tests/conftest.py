"""Puts the package sources on the path of the tests and of the programs they start.

With this, a bare ``python3 -m pytest`` from the repository root finds
``simnorm`` without installing it: in this process through ``sys.path``,
and in the ``python -m simnorm`` children of the CLI tests through
``PYTHONPATH``, which they inherit.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
