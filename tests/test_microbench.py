"""Smoke test of ``microbench.py``: one JSON line with every kernel's
median time and unit."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_microbench_prints_every_kernel():
    out = subprocess.run(
        [sys.executable, "microbench.py", "--seed", "3", "--budget-s",
         "0.01"], cwd=ROOT, capture_output=True, text=True, timeout=300,
        check=True).stdout.strip().splitlines()
    assert len(out) == 1
    got = json.loads(out[0])
    assert set(got) == {"decode_per_run", "decode_joined",
                        "encode_per_run", "encode_joined",
                        "partial_postings", "merge_bucket",
                        "partial_postings_zipf", "merge_bucket_zipf",
                        "compact_zipf",
                        "simple_tokenize", "minhash", "minhash_affine",
                        "simhash", "popcount", "group_sum",
                        "indri_tree"}
    for v in got.values():
        assert set(v) == {"median", "unit"}
        assert v["median"] > 0 and v["unit"].startswith("ms per ")
