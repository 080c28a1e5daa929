"""Behaviour digest of the tree DP on seeded trees of every shape helper.

Per family of trees it records the tree count, a sha256 over each tree's
optimal size and witness, and the total memo keys that the solves stored.
The expected values live in ``digest.json`` beside this file.  A change
meant to keep the DP's outputs, such as a speed-up, leaves the sizes and
witnesses, and so every sha256, as they are; a change that is also meant
to keep the key space leaves the key totals too.  Every witness is also
checked to be a consistent subset of its tree; one that is not stops the
run, naming the family and the tree's index.  Each family's first
trees form its quick slice, which the tier-1 suite checks
(``pytest tests/test_digest.py``); this script checks or rewrites the
whole set.

Run from the repository root::

    PYTHONPATH=src python tests/digest.py            # check every family
    PYTHONPATH=src python tests/digest.py --write    # rewrite digest.json

Checking writes nothing and exits 1 on any difference; ``--write``
records the current outputs, so run it only where they are meant to
change, and say why in the change's notes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

from consistent_subset import SplitMix64, is_consistent, random_tree
from consistent_subset.treedp import solve_tree_mcs_detailed

from helpers import broom, caterpillar, comb, path_graph, runs_path, spider

EXPECTED = pathlib.Path(__file__).with_name("digest.json")


def _random(k):
    return random_tree(2 + k % 79, 1 + k % 4, 10_000 + k)


def _runs_path(k):
    return runs_path(2 + k % 119, 2 + k % 2, 1, 2 + k % 5, 20_000 + k)


def _alternating_path(k):
    # colors 1, 2, ... cycling from a rotating start, so vertex 1 (the
    # root) takes every color in turn
    c = 2 + k % 2
    return path_graph([1 + (k + v) % c for v in range(2 + k % 149)])


def _caterpillar(k):
    return caterpillar(2 + k % 39, 2 + k % 2, 1, 1 + k % 4, 30_000 + k)


def _spider(k):
    return spider(1 + k % 5, 2 + k % 2, 1, 2 + k % 9, 40_000 + k)


def _broom(k):
    rng = SplitMix64(50_000 + k)
    c = 2 + k % 2
    handle = [1 + rng.below(c) for _ in range(1 + k % 40)]
    return broom(handle, [1 + rng.below(c) for _ in range(1 + k % 6)])


def _comb(k):
    return comb(1 + k // 3, k % 3)


#: name -> (builder of the k-th tree, trees in the family, trees in its
#: quick slice)
FAMILIES = {
    "random-trees": (_random, 4000, 1000),
    "runs-paths": (_runs_path, 960, 240),
    "alternating-paths": (_alternating_path, 900, 200),
    "caterpillars": (_caterpillar, 960, 240),
    "spiders": (_spider, 960, 240),
    "brooms": (_broom, 800, 200),
    "combs": (_comb, 360, 150),
}


def family_digests(name, counts) -> list:
    """Per count in ``counts`` (ascending), the digest of the first that
    many trees of the family ``name``: tree count, sha256 over
    ``size:witness`` lines, and memo keys.  Every witness must be a
    consistent subset of its tree."""
    build = FAMILIES[name][0]
    sha = hashlib.sha256()
    keys = 0
    out = []
    for k in range(counts[-1]):
        g = build(k)
        cert, _tree, table = solve_tree_mcs_detailed(g)
        if not is_consistent(g, cert.witness):
            raise AssertionError(f"{name} tree {k}: the witness is not consistent")
        sha.update(f"{cert.size}:{','.join(map(str, cert.witness))}\n".encode())
        keys += table.size
        if k + 1 in counts:
            out.append({"trees": k + 1, "sha256": sha.hexdigest(), "memo_keys": keys})
    return out


def expected() -> dict:
    """The committed digests: per family the whole set's, with its quick
    slice's under ``"quick"``."""
    return json.loads(EXPECTED.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite digest.json from the current outputs")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    if args.write:
        data = {}
        for name, (_build, count, slice_) in FAMILIES.items():
            quick, full = family_digests(name, [slice_, count])
            data[name] = {**full, "quick": quick}
            print(f"{name}: {full}")
        EXPECTED.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {EXPECTED.name} in {time.perf_counter() - t0:.1f} s")
        return 0
    data, bad = expected(), 0
    for name, (_build, count, _slice) in FAMILIES.items():
        [got] = family_digests(name, [count])
        want = {k: val for k, val in data.get(name, {}).items() if k != "quick"}
        ok = got == want
        bad += not ok
        print(f"{'ok' if ok else 'DIFFERS'} {name}: {got}"
              + ("" if ok else f"\n  expected {want}"))
    print(f"{len(FAMILIES) - bad} of {len(FAMILIES)} families match "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
