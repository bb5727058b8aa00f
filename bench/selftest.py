"""Show that each output check accepts the program's real output and rejects
a deliberately corrupted copy of it (program seed 0)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from mrsplit import convolution
from workloads import (
    KERNEL_CALLS,
    TRAIN_EPOCHS,
    Kernels,
    RodTrace,
    SplitLarge,
    Train,
    Verify,
    parse_number,
)


def _json_edit(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def _move_arc(data: dict) -> None:
    data["E2"].append(data["E1"].pop())


def _drop_arc(data: dict) -> None:
    data["E1"].pop()


def _double_scores(data: dict) -> None:
    data["scores"] = [2.0 * x for x in data["scores"]]


def _nan_score(data: dict) -> None:
    data["scores"][0] = float("nan")


def _scale_scores(data: dict) -> None:
    data["scores"] = [1.01 * x for x in data["scores"]]


def _replace_value(text: str, row: int, col: int, fn) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _perturb(cell: str) -> str:
    return repr(parse_number(cell) * (1.0 + 1e-4))


def _rewrite_numbers(text: str) -> str:
    """Toggle every value between plain and np.float64(...) form."""
    if "np.float64(" in text:
        return re.sub(r"np\.float64\(([^)]*)\)", r"\1", text)
    lines = text.split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        if line:
            cells = line.split(",")
            cells[2:] = [f"np.float64({c})" for c in cells[2:]]
            line = ",".join(cells)
        out.append(line)
    return "\n".join(out)


def _train_final(text: str, factor: float | None) -> str:
    """Change the gcn final both in its last-epoch row and in the summary."""
    m = re.search(r"gcn=(\S+) ", text)
    old = m.group(1)
    new = "nan" if factor is None else repr(float(old) * factor)
    last = f"gcn,0,{TRAIN_EPOCHS},"
    return text.replace(f"{last}{old}\n", f"{last}{new}\n").replace(
        f"gcn={old} ", f"gcn={new} "
    )


def run_self_test(workdir: Path) -> int:
    bad: list[str] = []

    def expect(label: str, err: str | None, reject: bool) -> None:
        ok = (err is not None) == reject
        verdict = "rejected" if err else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}" + (f" ({err})" if err else ""))
        if not ok:
            bad.append(label)

    wl = SplitLarge(0, workdir)
    outputs = {}
    for order in wl.orderings:
        _, err, outputs[order] = wl._cli(wl.argv(order), workdir / "self.json")
        expect(f"split-large {order}: output as written", err or wl.check(outputs[order], order), False)
    for label, edit in (
        ("an E1 arc moved to E2", _move_arc),
        ("an arc dropped", _drop_arc),
        ("degree scores doubled", _double_scores),
        ("a NaN score", _nan_score),
    ):
        expect(f"split-large degree: {label}", wl.check(_json_edit(outputs["degree"], edit), "degree"), True)
    expect("split-large ppr: scores scaled by 1.01",
           wl.check(_json_edit(outputs["ppr"], _scale_scores), "ppr"), True)

    wl = RodTrace(0, workdir)
    _, err, text = wl._cli(wl.argv(), workdir / "self.csv")
    expect("rod-trace: output as written", err or wl.check(text), False)
    expect("rod-trace: numbers rewritten in the other form", wl.check(_rewrite_numbers(text)), False)
    expect("rod-trace: one ROD value off by 1e-4", wl.check(_replace_value(text, 40, 2, _perturb)), True)
    expect("rod-trace: one energy value off by 1e-4", wl.check(_replace_value(text, 41, 3, _perturb)), True)
    expect("rod-trace: a row dropped", wl.check(text.replace(text.split("\n")[7] + "\n", "")), True)
    expect("rod-trace: a NaN value", wl.check(_replace_value(text, 9, 2, lambda c: "nan")), True)

    wl = Train(0, workdir)
    _, err, text = wl._cli(wl.argv(), workdir / "self.txt")
    expect("train: output as written", err or wl.check(text), False)
    expect("train: gcn final off by 1e-4", wl.check(_train_final(text, 1.0 + 1e-4)), True)
    expect("train: gcn final is NaN", wl.check(_train_final(text, None)), True)
    expect("train: summary disagrees with the last row",
           wl.check(text.replace("gcn=", "gcn=1", 1)), True)

    wl = Verify(0, workdir)
    _, err, text = wl._cli(wl.argv(), workdir / "self.json")
    expect("verify: output as written", err or wl.check(text), False)
    expect("verify: Infinity in the JSON",
           wl.check(re.sub(r'"min_margin": [^,\n]+', '"min_margin": Infinity', text, count=1)), True)
    expect("verify: all_passed false", wl.check(text.replace('"all_passed": true', '"all_passed": false')), True)
    expect("verify: a suite dropped",
           wl.check(_json_edit(text, lambda d: d["reports"].pop())), True)

    wl = Kernels(0, workdir)
    for kernel, _ in KERNEL_CALLS:
        out = getattr(convolution, kernel)(*wl.args[kernel])
        expect(f"kernels {kernel}: output as computed", wl.check(kernel, out), False)
        bumped = out.copy()
        bumped[7, 3] += 1e-5 * np.abs(out).max()
        expect(f"kernels {kernel}: one entry off by 1e-5 of the max", wl.check(kernel, bumped), True)
        bumped[7, 3] = np.nan
        expect(f"kernels {kernel}: a NaN entry", wl.check(kernel, bumped), True)

    print(f"self-test: {len(bad)} check(s) misbehaved" if bad else "self-test: all checks behave")
    return 1 if bad else 0

