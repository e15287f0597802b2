"""The README's integration suite through the command line: ``qichan
example NAME --out DIR`` for every bundled example, then ``validate`` and
``preserved`` on each channel file it wrote.

This is the only workload that exercises ``cli``, ``serialize`` and
``catalog``.  It is mostly small d; ``diamonds-inf`` is its slowest
request.  The names are listed here because ``catalog.EXAMPLE_NAMES``
holds the placeholder ``diamonds-n``, which the command line rejects.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from qichan import catalog, cli

from . import Mix, Request

NAMES = (
    "dephasing",
    "blocks",
    "bitflip3",
    "teleport",
    "teleport-lossy",
    "classical-stochastic",
    "diamonds-2",
    "diamonds-3",
    "diamonds-4",
    "diamonds-5",
    "diamonds-inf",
    "sic-cloner",
    "antisym",
    "sweep",
    "iterated",
)
# a pass sends 15 example requests and a validate and a preserved request
# for each of the 15 channel files; p75 of those 45 leaves eleven beyond it
TAIL_Q = 0.75
# block structures the catalogue plants (``preserved`` on the main channel)
PLANTED_BLOCKS = {
    "dephasing": [[1, 1]] * 4,
    "blocks": [[3, 1], [2, 1], [1, 1]],
    "teleport": [[2, 1]],
    "teleport-lossy": [[1, 1], [1, 1]],
}

# relative to the checkout root, where the worker runs
WORKDIR = Path(".perfbench_out") / "examples"


def _matrices(entries, rows: int, cols: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)


def _read_channel(text: str) -> list[np.ndarray]:
    data = json.loads(text)
    return [_matrices(e, data["dim_out"], data["dim_in"]) for e in data["elements"]]


def _read_observable(text: str) -> list[np.ndarray]:
    data = json.loads(text)
    return [_matrices(e, data["dim"], data["dim"]) for e in data["effects"]]


def _bit_exact(got: list[np.ndarray], want) -> bool:
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def _example(name: str, seed: int, out: Path) -> Request:
    bundle = catalog.example_catalog(name, seed)
    channels = {f"{name}.{k}.channel.json": v.elements for k, v in bundle.channels.items()}
    observables = {f"{name}.{k}.observable.json": v.effects for k, v in bundle.observables.items()}

    def call():
        code = cli.main(["example", name, "--out", str(out), "--seed", str(seed)])
        files = [f"{name}.report.json", *channels, *observables]
        return code, {f: (out / f).read_text() for f in files if (out / f).exists()}

    def check(ans) -> bool:
        code, texts = ans
        if code != 0 or not json.loads(texts[f"{name}.report.json"])["results"].get("passes"):
            return False
        return all(f in texts and _bit_exact(_read_channel(texts[f]), want) for f, want in channels.items()) and all(
            f in texts and _bit_exact(_read_observable(texts[f]), want) for f, want in observables.items()
        )

    return Request("example", call, check)


def _on_file(command: str, path: Path, planted) -> Request:
    report = path.with_name(path.name + f".{command}.json")

    def call():
        code = cli.main([command, str(path), "--out", str(report)])
        return code, report.read_text() if report.exists() else ""

    def check(ans) -> bool:
        code, text = ans
        if code != 0:
            return False
        results = json.loads(text)["results"]
        if command == "validate":
            return bool(results["valid"])
        alg = results["preserved_algebra"]
        dims = alg["block_dims"]
        consistent = sum(n * m for n, m in dims) == alg["dim"] and sum(n * n for n, _ in dims) == alg["dimension"]
        return consistent and (planted is None or sorted(dims) == sorted(planted))

    return Request(command, call, check)


def build(rng: np.random.Generator) -> Mix:
    seed = int(rng.integers(2**31))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    order = [NAMES[i] for i in rng.permutation(len(NAMES))]
    reqs = []
    for name in order:
        reqs.append(_example(name, seed, WORKDIR))
        for label in catalog.example_catalog(name, seed).channels:
            path = WORKDIR / f"{name}.{label}.channel.json"
            planted = PLANTED_BLOCKS.get(name) if label == "channel" else None
            reqs.append(_on_file("validate", path, None))
            reqs.append(_on_file("preserved", path, planted))
    warm_dir = WORKDIR / "warmup"
    warm_dir.mkdir(parents=True, exist_ok=True)
    return Mix(requests=reqs, warmup=_example("teleport", seed, warm_dir))
