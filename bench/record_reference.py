"""Record the reference outputs that run.py checks every command against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_reference.py [workload ...]

It runs each command of every input variant once and writes the parsed
outputs, with a digest of the generated inputs, to bench/reference/.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(cli, name):
    variants = [0] if name == "verify" else range(workloads.VARIANTS)
    entries = {}
    for variant in variants:
        wl = workloads.make(name, variant, run.OUT / "inputs")
        outputs = {}
        for index in range(len(wl.passes)):
            for cmd, rc, out, _ in run.run_pass(cli, wl, index):
                if rc != 0:
                    sys.exit(f"{name} variant {variant} {cmd.key}: exit code {rc}")
                outputs[cmd.key] = workloads.parse_output(name, out)
        entries[str(variant)] = {"inputs_sha256": wl.inputs_digest(), "outputs": outputs}
        print(f"{name} variant {variant} recorded", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries.items()]
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    (workloads.REFERENCE_DIR / f"{name}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(names):
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        record(cli, name)


if __name__ == "__main__":
    main(sys.argv[1:])
