import os
import sys
from pathlib import Path

# allow running the suite from a checkout without installing: src/ goes on
# this process's path and on PYTHONPATH, which the interpreters the tests
# start inherit
_src = str(Path(__file__).resolve().parents[1] / "src")
if _src not in sys.path:
    sys.path.insert(0, _src)
if _src not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_src, os.environ.get("PYTHONPATH")]))
