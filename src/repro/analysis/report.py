"""Render measured results next to the paper's Tables I–V (markdown).

All formatters take the list-of-dict records produced by
:mod:`repro.analysis.harness` (``load_records``) and return a markdown
table string.  Our numbers are absolute on local-Spark scaled-down data;
the paper's numbers (5-node HAWQ, 10⁴–10⁵× larger graphs) are shown
alongside so readers can compare *shape* — ranking per dataset, failures
("—"), and space ratios relative to the input.
"""
from __future__ import annotations

from ..analysis.union_find import components_pandas
from ..graphs.datasets import dataset_names, get_dataset

GRID_ALGOS = ("rc", "hm", "tp", "cr")
_ALGO_TITLES = {"rc": "RC", "hm": "HM", "tp": "TP", "cr": "CR"}


def _index(records: list[dict]) -> dict[tuple[str, str], dict]:
    return {(r["dataset"], r["algo"]): r for r in records}


def _fmt(x, unit: float = 1.0, nd: int = 1) -> str:
    return "—" if x is None else f"{x / unit:.{nd}f}"


def dataset_stats(profile: str = "bench", seed: int = 0) -> list[dict]:
    """Measured |V|, |E|, #components for every registry dataset (Table II)."""
    out = []
    for name in dataset_names():
        spec = get_dataset(name)
        pdf = spec.build_pandas(profile, seed)
        labels = components_pandas(pdf)
        out.append(
            {
                "dataset": name,
                "vertices": int(labels["v"].nunique()),
                "edges": int(len(pdf)),
                "components": int(labels["c"].nunique()),
            }
        )
    return out


def format_table2(stats: list[dict]) -> str:
    """Table II: datasets — measured vs paper sizes."""
    lines = [
        "| dataset | |V| ours | |E| ours | comps ours | |V| paper | |E| paper | comps paper |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for s in stats:
        p = get_dataset(s["dataset"]).paper
        lines.append(
            f"| {s['dataset']} | {s['vertices']:,} | {s['edges']:,} | "
            f"{s['components']:,} | {p.vertices_m:,.0f} M | {p.edges_m:,.0f} M | "
            f"{p.components_k:,.3g} k |"
        )
    return "\n".join(lines)


def _grid_table(records: list[dict], ours_of, paper_of, header: str) -> str:
    idx = _index(records)
    lines = [
        f"| dataset | {header} |",
        "|---|" + "---:|" * (2 * len(GRID_ALGOS)),
    ]
    for name in dataset_names():
        paper = get_dataset(name).paper
        ours = []
        theirs = []
        for a in GRID_ALGOS:
            r = idx.get((name, a))
            ours.append(ours_of(r) if r is not None else "?")
            theirs.append(paper_of(paper, a))
        lines.append(
            f"| {name} | " + " | ".join(ours) + " | " + " | ".join(theirs) + " |"
        )
    return "\n".join(lines)


def format_table3(records: list[dict]) -> str:
    """Table III: runtimes — ours in seconds, paper in seconds."""
    header = (
        " | ".join(f"{_ALGO_TITLES[a]} ours (s)" for a in GRID_ALGOS)
        + " | "
        + " | ".join(f"{_ALGO_TITLES[a]} paper (s)" for a in GRID_ALGOS)
    )
    return _grid_table(
        records,
        lambda r: "—" if r["aborted"] else f"{r['seconds']:.1f}",
        lambda p, a: _fmt(p.runtime_s[a], nd=0),
        header,
    )


def _space_table(records: list[dict], field: str, paper_field: str) -> str:
    """Tables IV and V: record ``field`` in MB, the paper's ``paper_field`` in GB."""
    idx = _index(records)
    lines = [
        "| dataset | input ours (MB) | "
        + " | ".join(f"{_ALGO_TITLES[a]} ours (MB)" for a in GRID_ALGOS)
        + " | input paper (GB) | "
        + " | ".join(f"{_ALGO_TITLES[a]} paper (GB)" for a in GRID_ALGOS)
        + " |",
        "|---|" + "---:|" * (2 * len(GRID_ALGOS) + 2),
    ]
    mb = 1e6
    for name in dataset_names():
        paper = get_dataset(name).paper
        any_rec = next((idx[(name, a)] for a in GRID_ALGOS if (name, a) in idx), None)
        inp = f"{any_rec['input_bytes'] / mb:.1f}" if any_rec else "?"
        ours = [
            ("—" if idx[(name, a)]["aborted"] else f"{idx[(name, a)][field] / mb:.1f}")
            if (name, a) in idx
            else "?"
            for a in GRID_ALGOS
        ]
        theirs = [_fmt(getattr(paper, paper_field)[a], nd=0) for a in GRID_ALGOS]
        lines.append(
            f"| {name} | {inp} | " + " | ".join(ours)
            + f" | {paper.input_gb:.0f} | " + " | ".join(theirs) + " |"
        )
    return "\n".join(lines)


def format_table4(records: list[dict]) -> str:
    """Table IV: max space — ours in MB (plus input MB), paper in GB."""
    return _space_table(records, "peak_live_bytes", "max_space_gb")


def format_table5(records: list[dict]) -> str:
    """Table V: total bytes written — ours in MB, paper in GB."""
    return _space_table(records, "total_bytes_written", "written_gb")


def format_rounds_table(records: list[dict]) -> str:
    """Table I companion: measured rounds per algorithm and dataset."""
    idx = _index(records)
    algos = sorted({r["algo"] for r in records})
    names = [n for n in dataset_names() if any((n, a) in idx for a in algos)]
    names += sorted({r["dataset"] for r in records} - set(names))
    lines = [
        "| dataset | " + " | ".join(algos) + " |",
        "|---|" + "---:|" * len(algos),
    ]
    for name in names:
        row = [
            (("—" if idx[(name, a)]["aborted"] else str(idx[(name, a)]["rounds"]))
             if (name, a) in idx else "?")
            for a in algos
        ]
        lines.append(f"| {name} | " + " | ".join(row) + " |")
    return "\n".join(lines)
