"""Child processes started by the tests (CLI runs, demos, fresh
interpreters) import this checkout's package: pytest's ``pythonpath``
setting reaches only this process, so ``src`` goes on PYTHONPATH too."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
