"""Regenerate ``references.json``: the expected outputs of the six
SPEC-JVM98 analogues at the ``bench`` profile, produced by the
unreplicated ``engine="step"`` oracle (the reference interpreter loop,
no replication).  ``spec_batch`` compares every replicated job's
console transcript and file contents with these.

Run from the repository root::

    python3 perfbench/make_references.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))


def main() -> int:
    from repro.env.environment import Environment
    from repro.replication.machine import run_unreplicated
    from repro.runtime.jvm import JVMConfig
    from repro.workloads import ALL_WORKLOADS

    sys.path.insert(0, HERE)
    from workloads import PROFILE, REFERENCES, stable_outputs

    programs = {}
    for workload in ALL_WORKLOADS:
        env = Environment()
        workload.prepare_env(env, PROFILE)
        result, _jvm = run_unreplicated(
            workload.compile(PROFILE), workload.main_class, env=env,
            jvm_config=JVMConfig(engine="step"))
        if not result.ok:
            print(f"{workload.name}: oracle run failed: {result.uncaught}",
                  file=sys.stderr)
            return 1
        programs[workload.name] = stable_outputs(env)
        print(f"{workload.name}: {programs[workload.name]['console']}")
    with open(REFERENCES, "w") as fh:
        json.dump({"profile": PROFILE, "engine": "step",
                   "programs": programs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
