"""Layer wrappers for the loopback SSH workers of a traced remote_sweep run.

The traced run puts this directory on the workers' ``PYTHONPATH`` and names
an output directory in ``PERFBENCH_WORKER_LAYERS``; each worker then writes
its accumulated layer statistics to ``<dir>/<pid>.json`` after every cell.
Without the variable this module does nothing.
"""

import os

_OUT = os.environ.get("PERFBENCH_WORKER_LAYERS")

if _OUT:
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import layers

    _recorder = layers.Recorder()
    _path = Path(_OUT) / f"{os.getpid()}.json"

    def _dump() -> None:
        tmp = _path.with_suffix(".tmp")
        tmp.write_text(json.dumps(_recorder.snapshot()))
        tmp.replace(_path)

    _recorder.on_cell = _dump
    _recorder.__enter__()
