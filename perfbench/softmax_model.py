"""External black box for the CLI workload, speaking the sd4x CSV protocol.

Usage: python3 softmax_model.py BLACKBOX_JSON WORKDIR

Reads WORKDIR/request.csv, routes every row to the regime of the
piecewise softmax-linear model in BLACKBOX_JSON whose threshold
conditions it meets, and writes the class probabilities to
WORKDIR/response.csv.  Only numpy is used, as a stand-in for a real
model served from another process.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        model = json.load(fh)
    request = os.path.join(argv[1], "request.csv")
    with open(request, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header != model["columns"]:
        print(f"request columns {header} do not match the model", file=sys.stderr)
        return 2
    X = np.loadtxt(request, delimiter=",", skiprows=1, ndmin=2)
    logits = np.empty((X.shape[0], len(model["classes"])))
    matched = np.zeros(X.shape[0], dtype=np.int64)
    for reg in model["regimes"]:
        rows = np.ones(X.shape[0], dtype=bool)
        for cond in reg["conditions"]:
            col = X[:, header.index(cond["column"])]
            rows &= col <= cond["value"] if cond["op"] == "le" else col > cond["value"]
        matched += rows
        logits[rows] = X[rows] @ np.asarray(reg["weights"]).T + np.asarray(reg["biases"])
    if np.any(matched != 1):
        print("regimes do not partition the request rows", file=sys.stderr)
        return 2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    np.savetxt(
        os.path.join(argv[1], "response.csv"),
        probs,
        delimiter=",",
        header=",".join(model["classes"]),
        comments="",
        fmt="%.17g",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
