"""Dataset registry: the paper's 12 benchmark graphs, scaled for one machine.

Each entry carries (a) a generator closure per size profile and (b) the
paper's published numbers from Tables II–V, so reports can print
paper-vs-measured side by side.  Profiles:

* ``test``  — tiny graphs for unit/integration tests (~10²–10³ edges);
* ``bench`` — benchmark scale (~10⁴–10⁵ edges; ≈1:10⁴…10⁵ of the paper).

The paper's runtime / space numbers are on a 5-node HAWQ cluster over
10⁸–10⁹-edge graphs, so only *shape* (ranking, ratios, failures) is
comparable; EXPERIMENTS.md records both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from . import generators as G


@dataclass(frozen=True)
class PaperNumbers:
    """Published values for one dataset (None = the paper's '—')."""

    vertices_m: float  # Table II, millions
    edges_m: float
    components_k: float  # thousands
    runtime_s: dict  # Table III: algo → seconds
    input_gb: float  # Tables IV/V input column
    max_space_gb: dict  # Table IV: algo → GB
    written_gb: dict  # Table V: algo → GB


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset: generators per profile + paper numbers."""

    name: str
    gen: dict  # profile → Callable[[int], pd.DataFrame] (arg: seed)
    paper: PaperNumbers
    description: str = ""

    def build_pandas(self, profile: str = "bench", seed: int = 0) -> pd.DataFrame:
        return self.gen[profile](seed)

    def build(
        self, spark: SparkSession, profile: str = "bench", seed: int = 0
    ) -> DataFrame:
        return G.to_spark(spark, self.build_pandas(profile, seed))


def _paper(v, e, c, rt, inp, sp, wr) -> PaperNumbers:
    algos = ("rc", "hm", "tp", "cr")
    return PaperNumbers(
        vertices_m=v,
        edges_m=e,
        components_k=c,
        runtime_s=dict(zip(algos, rt)),
        input_gb=inp,
        max_space_gb=dict(zip(algos, sp)),
        written_gb=dict(zip(algos, wr)),
    )


def _candels(frames_bench: int, frames_test: int) -> dict:
    return {
        "bench": lambda seed, f=frames_bench: G.video_graph(20, 15, f, seed=seed),
        "test": lambda seed, f=frames_test: G.video_graph(8, 6, f, seed=seed),
    }


DATASETS: dict[str, DatasetSpec] = {}


def _add(name: str, gen: dict, paper: PaperNumbers, description: str) -> None:
    DATASETS[name] = DatasetSpec(name, gen, paper, description)


_add(
    "andromeda",
    {
        "bench": lambda seed: G.image_graph(320, 208, threshold=50, seed=seed),
        "test": lambda seed: G.image_graph(32, 24, threshold=50, seed=seed),
    },
    _paper(1459, 2287, 62166, (5431, None, 37987, 14506), 59,
           (276, None, 115, 263), (552, None, 1768, 905)),
    "2-D image 4-connectivity (gigapixel Andromeda photo stand-in)",
)
_add(
    "bitcoin_addresses",
    {
        "bench": lambda seed: G.bitcoin_addresses(20_000, seed=seed),
        "test": lambda seed: G.bitcoin_addresses(800, seed=seed),
    },
    _paper(878, 830, 216_917, (1530, 11696, 9811, 3457), 21,
           (109, 88, 43, 110), (215, 804, 557, 306)),
    "bipartite tx→input-address graph (address clustering heuristic)",
)
_add(
    "bitcoin_full",
    {
        "bench": lambda seed: G.bitcoin_full(25_000, seed=seed),
        "test": lambda seed: G.bitcoin_full(900, seed=seed),
    },
    _paper(1476, 2079, 37, (6398, None, 77359, 26015), 72,
           (255, None, 108, 272), (690, None, 1858, 1151)),
    "full transaction graph: tx→output→spending-tx chains",
)
_add("candels10", _candels(10, 3),
     _paper(83, 238, 39, (424, 3178, 1425, 867), 6,
            (27, 21, 12, 24), (48, 148, 93, 61)),
     "3-D video 6-connectivity, 10 frames")
_add("candels20", _candels(20, 4),
     _paper(166, 483, 48, (749, 5868, 2836, 1766), 12,
            (55, 42, 24, 50), (97, 295, 179, 125)),
     "3-D video 6-connectivity, 20 frames")
_add("candels40", _candels(40, 6),
     _paper(332, 975, 91, (1482, 13892, 6363, 3726), 25,
            (110, 86, 48, 100), (196, 618, 369, 251)),
     "3-D video 6-connectivity, 40 frames")
_add("candels80", _candels(80, 8),
     _paper(663, 1958, 224, (3463, None, 15560, 8619), 50,
            (221, None, 96, 201), (394, None, 774, 504)),
     "3-D video 6-connectivity, 80 frames")
_add("candels160", _candels(160, 10),
     _paper(1326, 3923, 617, (9260, None, 32615, 23409), 102,
            (443, None, 193, 403), (790, None, 1481, 1009)),
     "3-D video 6-connectivity, 160 frames")
_add(
    "friendster",
    {
        "bench": lambda seed: G.chung_lu(3_300, 90_000, seed=seed),
        "test": lambda seed: G.chung_lu(200, 2_000, seed=seed),
    },
    _paper(66, 1806, 0.001, (2462, 9554, 4409, 5092), 47,
           (190, 183, 91, 181), (309, 481, 258, 294)),
    "power-law social graph (com-Friendster stand-in), E/V ≈ 27",
)
_add(
    "rmat",
    {
        "bench": lambda seed: G.rmat(11, 104_000, seed=seed),
        "test": lambda seed: G.rmat(7, 2_000, seed=seed),
    },
    _paper(39, 2079, 5, (2151, 4384, 2816, 3187), 54,
           (217, 120, 86, 169), (259, 248, 169, 177)),
    "R-MAT(0.57, 0.19, 0.19, 0.05) — parameters of Kiveris et al.",
)
_add(
    "path100m",
    {
        "bench": lambda seed: G.path(100_000, numbering="sequential"),
        "test": lambda seed: G.path(2_000, numbering="sequential"),
    },
    _paper(100, 100, 0.001, (366, None, 1406, None), 3,
           (13, None, 5, None), (31, None, 75, None)),
    "sequentially numbered path (HM/Cracker space blow-up trigger)",
)
_add(
    "pathunion10",
    {
        "bench": lambda seed: G.path_union(total=15_400, n_paths=10),
        "test": lambda seed: G.path_union(total=1_000, n_paths=10),
    },
    _paper(154, 154, 0.010, (386, None, 4022, 1202), 4,
           (20, None, 8, 20), (48, None, 264, 116)),
    "union of 10 paths, zig-zag numbering (Two-Phase worst case)",
)

#: §VII-C comparison graph — not part of Tables II–V, so no PaperNumbers rows
#: beyond the runtimes quoted in the text (RC in-DB 143 s, Cracker in-DB
#: 261 s, Cracker original Spark 1338 s on 19M vertices / 20M edges).
STREETS = DatasetSpec(
    "streets_italy",
    {
        "bench": lambda seed: G.streets(140, 140, seed=seed),
        "test": lambda seed: G.streets(20, 20, seed=seed),
    },
    _paper(19, 20, 0.001, (143, None, None, 261), 1.0, (None,) * 4, (None,) * 4),
    "street network: grid spanning tree + 5% chords (Streets of Italy)",
)


def dataset_names() -> list[str]:
    """Table II/III order (the order of :data:`DATASETS`)."""
    return list(DATASETS)


def get_dataset(name: str) -> DatasetSpec:
    if name == "streets_italy":
        return STREETS
    try:
        return DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {dataset_names() + ['streets_italy']}"
        ) from None
