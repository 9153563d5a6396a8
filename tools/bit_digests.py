"""Print one sha256 per case of the model's numerical outputs, to check that
a refactor leaves every bit of them unchanged.

    python3 tools/bit_digests.py [SRC_DIR] > digests.txt

SRC_DIR is the directory holding the ``statefx`` package (default: the
``src`` directory next to this script).  Run it on two checkouts and diff
the outputs.  BLAS and OpenMP are pinned to one thread before numpy loads,
so a reduction's summation order does not depend on the thread count.

Cases, each over the five architectures:
  init       ``Model.init`` parameters for cond_dim 0 to 3
  forward    ``forward_segment`` outputs and states for B in {1, 3} and
             cond_dim in {0, 2}, with no, static and scheduled ``p``, whole
             and with ``chunk=977``, over two consecutive calls
  backward   ``training.backward_segment`` losses, gradients and states over
             two consecutive segments
  checkpoint the bytes of a saved checkpoint
  flops      every ``count_flops`` field for cond_dim 0 and 2
and ``scans.linear_filter`` over the oracle filters of ``data``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from statefx import data, scans  # noqa: E402
from statefx.model import ARCHITECTURES, Checkpoint, Model, ModelConfig  # noqa: E402
from statefx.training import backward_segment  # noqa: E402

FS = 48000
SEGMENT = 2500  # longer than one 977-sample chunk, not a multiple of it


def digest(*items) -> str:
    """sha256 over arrays (dtype, shape and bytes), dicts in their order, and reprs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k, v in x.items():
                h.update(repr(k).encode())
                feed(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                feed(v)
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(items)
    return h.hexdigest()


def conditioning(mode: str, B: int, L: int, P: int, rng):
    if mode == "none":
        return None
    if mode == "static":
        return rng.uniform(0.0, 1.0, (B, P))
    steps = np.sort(rng.integers(0, L, 3))  # piecewise constant, as a render schedule
    p = np.repeat(rng.uniform(0.0, 1.0, (B, 1, P)), L, axis=1)
    for t in steps:
        p[:, t:] = rng.uniform(0.0, 1.0, (B, 1, P))
    return p


def cases():
    for arch in ARCHITECTURES:
        for cond_dim in range(4):
            yield f"init {arch} cond_dim={cond_dim}", Model.init(ModelConfig(arch, cond_dim), seed=3).params

    for arch in ARCHITECTURES:
        for cond_dim in (0, 2):
            model = Model.init(ModelConfig(arch, cond_dim), seed=5)
            for B in (1, 3):
                for mode in (("none",) if cond_dim == 0 else ("static", "scheduled")):
                    rng = np.random.default_rng(11)
                    x = rng.uniform(-1.0, 1.0, (B, 2 * SEGMENT))
                    p = conditioning(mode, B, 2 * SEGMENT, cond_dim, rng)
                    for chunk in (65536, 977):
                        state, out = model.init_state(B), []
                        for k in range(2):
                            sl = slice(k * SEGMENT, (k + 1) * SEGMENT)
                            pk = p[:, sl] if p is not None and p.ndim == 3 else p
                            y, state = model.forward_segment(state, x[:, sl], pk, chunk=chunk)
                            out.append((y, state))
                        yield f"forward {arch} cond_dim={cond_dim} B={B} p={mode} chunk={chunk}", out

    for arch in ARCHITECTURES:
        for cond_dim in (0, 2):
            model = Model.init(ModelConfig(arch, cond_dim), seed=7)
            rng = np.random.default_rng(13)
            B = 3
            x = rng.uniform(-1.0, 1.0, (B, 2 * SEGMENT))
            t = np.tanh(2.0 * x) + 0.1 * rng.normal(size=x.shape)
            p = conditioning("static" if cond_dim else "none", B, 0, cond_dim, rng)
            state, out = model.init_state(B), []
            for k in range(2):
                sl = slice(k * SEGMENT, (k + 1) * SEGMENT)
                loss, grads, state = backward_segment(model, state, x[:, sl], t[:, sl], p)
                out.append((loss, grads, state))
            yield f"backward {arch} cond_dim={cond_dim}", out

    with tempfile.TemporaryDirectory() as tmp:
        for arch in ARCHITECTURES:
            model = Model.init(ModelConfig(arch, 2), seed=9)
            history = {"train_loss": np.array([0.5, 0.25]), "val_loss": np.array([0.75, 0.5])}
            path = Path(tmp) / f"{arch}.sfx"
            Checkpoint.from_model(model, history, best_epoch=1).save(path)
            yield f"checkpoint {arch}", path.read_bytes()

    for arch in ARCHITECTURES:
        for cond_dim in (0, 2):
            yield f"flops {arch} cond_dim={cond_dim}", \
                dataclasses.asdict(Model.init(ModelConfig(arch, cond_dim)).count_flops())

    x = np.random.default_rng(17).uniform(-1.0, 1.0, (3, 4000))
    filters = [data._rbj_lowpass(fc, q, FS) for fc in (60.0, 23990.0) for q in (0.5, 8.0)]
    filters += [data._rbj_peaking(f, q, g, FS) for f in (100.0, 10000.0) for g in (-12.0, 12.0)
                for q in (0.5, 4.0)]
    for b, a in filters:
        yield f"linear_filter b={np.round(b, 6).tolist()}", (scans.linear_filter(b, a, x),
                                                             scans.linear_filter(b, a, x[0]))


def main() -> int:
    print(f"digests of {Path(data.__file__).parent}", file=sys.stderr)
    for name, value in cases():
        print(f"{digest(value)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
