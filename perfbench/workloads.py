"""The benchmark's workloads: registry ids, scale, jobs and fault plan.

Every input is fixed here rather than read from the registry, so a later
change that adds or reorders registry ids cannot silently change what a
workload measures.  Each experiment is a fixed function of the chip
seeds, so no workload draws anything from the benchmark's ``--seed``;
the only variable input is the chaos plan's seed (``--fault-seed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The CI chaos plan (device-level faults only); ``seed`` is replaced by
#: the benchmark's ``--fault-seed``, which defaults to this value.
CHAOS_PLAN = {"seed": 7, "read_flip_rate": 0.001, "drop_rate": 0.0002,
              "act_jitter_rate": 0.0005, "act_jitter_ns": 3.0}

PAPER_IDS = ("table1", "table2", "table3", "fig03", "fig04", "fig05",
             "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
             "fig13", "sec7", "fig14", "fig15")
COMMAND_IDS = ("sec7", "fig14", "ext-temperature", "ext-defenses")


@dataclass(frozen=True)
class Workload:
    name: str
    ids: Tuple[str, ...]
    scale: float
    jobs: int
    #: Whether the run carries the chaos plan in ``HBMSIM_FAULTS``.
    faults: bool
    #: Layers (see ``tracing.TARGETS``) a traced run must see called at
    #: least once; zero calls means a wrapper or fault plan never bit.
    exercised: Tuple[str, ...]

    def fault_plan(self, fault_seed: int) -> Optional[Dict[str, float]]:
        return dict(CHAOS_PLAN, seed=fault_seed) if self.faults else None

    def pin_set(self, fault_seed: int) -> str:
        """Key of this run's report digests in ``digests.json``.

        A report is a function of its id, the scale and the fault plan
        (``jobs`` only changes how it is computed), so one pin set holds
        every report of one (scale, fault seed) pair."""
        if self.faults:
            return f"scale {self.scale}, fault seed {fault_seed}"
        return f"scale {self.scale}"


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        # The paper sweep at -j 2: shardable ids fan out over the pool
        # and merge, then fig15 runs alone, so every layer's time stays
        # on the blocking path.
        Workload("paper-sweep-j2", PAPER_IDS, 1.0, 2, False,
                 ("chips.calibrate", "chips.population", "core.analytic",
                  "core.wordlevel", "experiments.sharding",
                  "analysis.reporting")),
        Workload("chaos", COMMAND_IDS, 0.1, 1, True,
                 ("chips.calibrate", "chips.cell_population", "dram.device",
                  "defenses", "workloads.overhead", "bender.compile",
                  "bender.hcfirst", "faults.classify",
                  "analysis.reporting")),
    )
}
