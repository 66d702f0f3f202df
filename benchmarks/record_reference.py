"""Record the outputs the benchmark checks against.

    python3 benchmarks/record_reference.py

Writes reference/presets/<name>.csv for the seven presets and
reference/manifest.json with their SHA-256 fingerprints and, for seeds
0 .. SEEDS-1 of exact_offcenter, interior_probe and cli_compute, the
digest of the generated inputs and the rate (or error class name) of
each request.
The cli_compute rates are computed in process through the same
RateRequest the ``compute`` subcommand builds.

Run it only to move the reference to a new commit on purpose: the
benchmark exists to notice when these outputs change.
"""

from __future__ import annotations

import hashlib
import json

import workloads

SEEDS = 16


def main() -> None:
    preset_dir = workloads.REFERENCE_DIR / "presets"
    preset_dir.mkdir(parents=True, exist_ok=True)
    presets = workloads.Presets(0, preset_dir)
    manifest = {"presets": {}, "exact_offcenter": {}, "interior_probe": {},
                "cli_compute": {}}
    for i, name in enumerate(workloads.PRESET_NAMES):
        path = presets.run(i)
        manifest["presets"][name] = hashlib.sha256(
            path.read_bytes()).hexdigest()

    for workload, generate in (("exact_offcenter", workloads.exact_inputs),
                               ("interior_probe", workloads.probe_inputs),
                               ("cli_compute", workloads.cli_inputs)):
        for seed in range(SEEDS):
            inputs = generate(seed)
            outputs = []
            for item in inputs:
                try:
                    outputs.append(workloads.locfield.compute(
                        workloads.rate_request(item)).total_ratio)
                except workloads.LocfieldError as exc:
                    outputs.append(type(exc).__name__)
            manifest[workload][str(seed)] = {
                "inputs_sha256": workloads.inputs_digest(inputs),
                "outputs": outputs}

    with open(workloads.MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
