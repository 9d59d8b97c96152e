"""Saving and loading model parameters.

Models are persisted as ``.npz`` archives of their ``state_dict``.  A small
JSON-compatible header records the architecture hyper-parameters so that a
checkpoint can be reconstructed without external bookkeeping.

The canonical round-trip — note that loading goes through an *existing*
module, which is what fixes the precision semantics::

    model = TransformerPredictor(22)
    save_model(model, "ckpt", header={"embed_dim": 32})   # writes ckpt.npz

    state, header = load_state("ckpt.npz")
    clone = TransformerPredictor(22)
    clone.load_state_dict(state)                          # parameters copied in

The archive is built in memory and published with
:func:`~repro.utils.atomic.write_atomic`, so an interrupted save leaves any
previous checkpoint at the path intact.

**Precision.**  ``np.savez`` stores every parameter in its native dtype, so
a float32 checkpoint is half the bytes of a float64 one and round-trips
bit-for-bit into a model of the same dtype.  The header additionally records
the model dtype under the ``"dtype"`` key (informational — :func:`load_state`
returns the arrays in their stored dtype regardless).  On load,
:meth:`Module.load_state_dict` casts each array to the *receiving
parameter's* dtype: a float64 checkpoint loads into a float32 model through
an explicit, documented cast rather than silently changing the model's
precision (see ``docs/numerics.md``).

Checkpoints do not carry optimizer state or the stacked parameter banks of
the functional path; persist adapted models by materialising one task first
(``module.load_state_dict(module.unstack_state(params, index))``).
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.nn.module import Module
from repro.utils.atomic import write_atomic

#: Key under which the architecture header is stored inside the archive.
_HEADER_KEY = "__metadse_header__"


def save_model(module: Module, path: "str | Path", *, header: Optional[dict[str, Any]] = None) -> Path:
    """Save *module*'s parameters (and an optional header) to *path*.

    The ``.npz`` suffix is appended when missing.  The module's parameter
    dtype is recorded in the header under ``"dtype"`` (a caller-supplied
    ``"dtype"`` entry wins).  Returns the actual path written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz") if path.suffix else path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(module.state_dict())
    full_header = {"dtype": module.dtype.name}
    full_header.update(header or {})
    header_json = json.dumps(full_header, sort_keys=True)
    payload[_HEADER_KEY] = np.frombuffer(header_json.encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    write_atomic(path, buffer.getvalue())
    return path


def load_state(path: "str | Path") -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Load a ``(state_dict, header)`` pair from *path*.

    Arrays come back in the dtype they were stored in; casting (if any)
    happens later, in :meth:`Module.load_state_dict`.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    with np.load(path, allow_pickle=False) as archive:
        state = {key: archive[key] for key in archive.files if key != _HEADER_KEY}
        header: dict[str, Any] = {}
        if _HEADER_KEY in archive.files:
            header = json.loads(bytes(archive[_HEADER_KEY].tolist()).decode("utf-8"))
    return state, header
