"""Pinned digest of the artifacts of a small 1-point run.

The digest covers only artifact parts that the run computes without BLAS:
the boosted ranking (``occurrence``, ``top_features``,
``training_mse_per_stage`` of ``selection.json``) and the random forest,
the nearest-neighbour model and the SVR (``models.json``'s ``rf``, ``knn``
and ``svr`` entries; KNN stores standardized training rows, whose mean and
std are numpy reductions, not BLAS calls, and the SVR steps on Python
floats). Its input CSV is not BLAS-free, though: ``synth`` forms the
planted signal with a matrix product (``SyntheticTruth.signal``),
which OpenBLAS rounds differently on different CPU kernels. So the digest
holds only where OpenBLAS picks the kernel it was recorded on
(``SkylakeX``); under ``OPENBLAS_CORETYPE=Haswell`` or ``Zen`` the CSV,
and with it the pinned parts, differ and the test fails. ROADMAP item 2
makes that sum BLAS-free. A change to tree growth, standardization,
prediction or serialization that moves any byte of these parts fails
here. Update the pin only with a change that means to alter artifacts.

``PINNED_SHA256`` was recorded when ``models.json`` wrote each tree as a
list of node dicts and every array as JSON lists of numbers, and it is
still taken over that view: each encoded array is read back into lists
(``oracles.unpacked``), and each tree is cut from the forest's block
through ``sizes`` (``oracles.forest_trees``) and spelled out as node dicts
(``oracles.node_list``). The trees and arrays themselves have not changed
since.
``WRITTEN_SHA256`` pins the same parts as the file writes them. It moved
when the ``left`` column left the file (a left child is always the next
node, so the column held nothing the others do not imply), and again when
a forest's trees became one block of node columns laid end to end, with
``n_features`` written once and each tree's node count in ``sizes``, and a
third time when the block kept only the fields each node uses: no ``right``
links, which pre-order fixes from the split and leaf flags, ``threshold``
at the splits only, and ``value`` and ``n`` at the leaves only. It moved a
fourth time when every numeric array (the node columns, ``knn``'s
``train_z`` and ``train_y``, ``svr``'s ``weights``) came to be written as
``{"dtype", "shape", "data"}``, ``data`` being base64 of the array's
little-endian bytes, which reads back without parsing decimal text. Each
time only the layout moved, and the node-list view is the same for every
layout, so ``PINNED_SHA256`` did not move. The test also checks that the
written block is the five node columns of those node lists with the
unused fields dropped (``oracles.sparse_block``).
"""

import hashlib
import json

from hydrocast.catalog import REFERENCE_POINTS
from hydrocast.cli import main

from oracles import forest_block, forest_trees, node_columns, node_list, sparse_block, unpacked

PINNED_SHA256 = "0d850a4396f1d63a7d44a915ba2a8d0cca38e03c02b70c50648e5d642d65024d"
WRITTEN_SHA256 = "97d53b70b018104bd7f71bde7cfe62304c55b141a46535adb75e961a5cdf160d"


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_one_point_run_artifact_digest(tmp_path):
    data = tmp_path / "data.csv"
    assert main([
        "synth", "--samples", "120", "--seed", "7", "--points", "p01",
        "--noise-rel", "0.1", "--out", str(data),
    ]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "boost": {"trees_per_stage": 20, "max_stages": 2},
        "learners": {
            "rf": {"n_trees": 10},
            "knn": {},
            "svr": {"epochs": 20},
            "lr": {},
            "mlp": {"epochs": 20},
        },
    }))
    output = tmp_path / "out"
    assert main([
        "run", "--config", str(config), "--data", str(data), "--output", str(output),
        "--points", "p01", "--seed", "7",
    ]) == 0

    point_dir = output / next(p for p in REFERENCE_POINTS if p.id == "p01").label
    selection = json.loads((point_dir / "selection.json").read_text())
    models = json.loads((point_dir / "models.json").read_text())
    pinned = {
        "occurrence": selection["occurrence"],
        "top_features": selection["top_features"],
        "training_mse_per_stage": selection["training_mse_per_stage"],
        "rf": models["models"]["rf"],
        "knn": models["models"]["knn"],
        "svr": models["models"]["svr"],
    }
    assert selection["n_stages"] == 2
    assert len(pinned["rf"]["trees"]["sizes"]) == 10
    assert _sha256(pinned) == WRITTEN_SHA256
    listed = unpacked(pinned)  # every encoded array as the JSON lists earlier versions wrote
    node_lists = [{"n_features": tree["n_features"], "nodes": node_list(tree)}
                  for tree in forest_trees(listed["rf"]["trees"])]
    assert _sha256({**listed, "rf": {**listed["rf"], "trees": node_lists}}) == PINNED_SHA256
    five_columns = forest_block([node_columns(tree["nodes"], tree["n_features"])
                                 for tree in node_lists])
    assert sparse_block(five_columns) == listed["rf"]["trees"]
