"""Dropping near-colinear predictors with the cosine filter.

Run from the repo root:  python3 demos/03_colinearity_pruning.py
"""

import numpy as np

from hydrocast import ColinearityConfig, prune_colinear

rng = np.random.default_rng(3)
n = 300

base = rng.standard_normal(n)
cols = {
    "a": base,
    "b": 2.5 * base,                                  # scaled duplicate of a
    "c": -base + rng.standard_normal(n) * 0.05,       # near anti-duplicate of a
    "d": rng.standard_normal(n),                      # independent
    "e": base * 0.7 + rng.standard_normal(n) * 0.7,   # moderately correlated
}
names = list(cols)
X = np.column_stack(list(cols.values()))


def cosines(X, norms):
    """Every pair's cosine at once, the matrix that prune_colinear scans."""
    return (X.T @ X) / np.outer(norms, norms)


cos = cosines(X, np.linalg.norm(X, axis=0))
print("Pairwise cosine similarities (L2):")
for i in range(len(names)):
    for j in range(i + 1, len(names)):
        print(f"  cos({names[i]}, {names[j]}) = {cos[i, j]:+.3f}")

kept, pairs = prune_colinear(X, ColinearityConfig(gamma=0.9))
print("\nAt gamma = 0.9 the scan keeps", [names[k] for k in kept])
for i, j, c in pairs:
    print(f"  dropped {names[j]} against kept {names[i]} (cos {c:+.3f})")

print("\nWhy the default uses L2 norms: with L1 norms in the denominator an")
print("exact duplicate no longer scores 1, so it can slip past the threshold:")
V = np.column_stack([base, base])
print(f"  identical columns, L2: {cosines(V, np.linalg.norm(V, axis=0))[0, 1]:.3f}")
print(f"  identical columns, L1: {cosines(V, np.abs(V).sum(axis=0))[0, 1]:.4f}")

kept_strict, _ = prune_colinear(X, ColinearityConfig(gamma=0.99))
print(f"\nRaising gamma to 0.99 keeps more columns: {[names[k] for k in kept_strict]}")
