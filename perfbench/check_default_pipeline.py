#!/usr/bin/env python3
"""Run `twkit pipeline --seed 7` once with the default config and compare its
artifact hashes with the ones recorded from the seed code.

    python3 perfbench/check_default_pipeline.py

The `pipeline` workload of run.py cuts the GAN epoch counts, so its tws.csv
cannot be compared with the default-config baseline; this script can. It
takes about 80 s on a 2-core machine, prints one JSON line, and exits 0 only
if every recorded hash prefix matches.
"""

import hashlib
import json
import shutil
import sys

from run import HERE, WORK, import_twkit, pin_blas_threads


def main() -> int:
    pin_blas_threads()
    import_twkit()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    out = WORK / "default-pipeline"
    shutil.rmtree(out, ignore_errors=True)
    code = sys.modules["twkit.cli"].main(["pipeline", "--out", str(out), "--seed", str(reference["seed"])])
    files = {}
    for name, prefix in reference["default_config_prefixes"].items():
        path = out / name
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
        files[name] = {"sha256": digest, "matches_seed_code": digest.startswith(prefix)}
    ok = code == 0 and all(f["matches_seed_code"] for f in files.values())
    print(json.dumps({"seed": reference["seed"], "exit": code, "files": files, "match": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
