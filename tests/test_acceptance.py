"""End-to-end gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; all
arithmetic is exact, so every comparison is plain equality.
"""

from __future__ import annotations

import json
import pathlib
import time
from fractions import Fraction

from brauerval.cli import main as cli_main
from brauerval.division import chain_division
from brauerval.lattices import Lattice
from brauerval.towers import (
    FormalElement,
    norm_element_oracle,
    trace_power_oracle,
)
from brauerval.verify import (
    build_family,
    family_size_formula,
    standard_tower,
    verify_char_not_p,
    verify_count_identities,
    verify_example73,
    verify_lemma72,
    verify_no_common_splitting,
    verify_value_groups,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


def test_ac1_counting_identity():
    started = time.perf_counter()
    for n in range(2, 7):
        for p in (2, 3, 5, 7):
            assert p**n - (p - 1) * (p ** (n - 1) + p ** (n - 2)) == p ** (n - 2)
    verdict = verify_count_identities()
    elapsed = time.perf_counter() - started
    ok = (
        verdict.result == "Verified"
        and verdict.get("strict_failures") == ((2, 2),)
        and all(identity for _, _, identity, _ in verdict.get("rows"))
        and elapsed < 1.0
    )
    report("AC1", ok, f"counting identity over 2<=n<=6, p in 2,3,5,7 ({elapsed:.2f}s)")


def test_ac2_value_groups():
    worst = 0.0
    for n, p in ((3, 2), (3, 3), (4, 2), (4, 3)):
        started = time.perf_counter()
        verdict = verify_value_groups(n, p)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert verdict.result == "Verified", (n, p)
        for name, (group, expected, match) in verdict.get("members").items():
            assert match, (n, p, name)
            assert group == expected
        assert verdict.get("index_each") == p ** (2 * n - 2)
        assert verdict.get("intersection") == Lattice.diagonal([Fraction(1, p)] * n)
        assert elapsed < 5.0, (n, p, elapsed)
    report("AC2", True, f"shift value groups and intersection, worst {worst:.2f}s")


def test_ac3_division_certificates():
    worst = 0.0
    for n, p in ((3, 2), (3, 3), (4, 2)):
        tower = standard_tower(n, p)
        family = build_family(n, p)
        started = time.perf_counter()
        for member in family.members:
            cert = chain_division(member.word, tower)
            assert cert.ok, (n, p, member.name)
            peel = cert.find("peel")
            assert peel is not None, (n, p, member.name)
            assert peel.get("left_ramification_index") == p ** (2 * n - 5)
            assert peel.get("left_residue_degree") == p
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert elapsed < 30.0, (n, p, elapsed)
    report("AC3", True, f"all members certified with defect p^(2n-5), worst {worst:.2f}s")


def test_ac4_no_common_splitting():
    for n, p in ((3, 2), (3, 3), (4, 2)):
        started = time.perf_counter()
        verdict = verify_no_common_splitting(n, p)
        elapsed = time.perf_counter() - started
        assert verdict.result == "Verified", (n, p)
        assert verdict.get("allowed_count") == p ** (n - 2), (n, p)
        assert verdict.get("family_size") == family_size_formula(n, p)
        if (n, p) == (4, 2):
            assert elapsed < 60.0, elapsed
    degenerate = verify_no_common_splitting(2, 2)
    assert degenerate.result == "Inconclusive"
    report("AC4", True, "no common splitting field at (3,2), (3,3), (4,2); (2,2) inconclusive")


def test_ac5_char_not_p_lattices():
    worst = 0.0
    for n, p in ((3, 2), (3, 3), (4, 2)):
        started = time.perf_counter()
        verdict = verify_char_not_p(n, p)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert verdict.result == "Verified", (n, p)
        assert verdict.get("min_unit_rank") >= 2
        assert verdict.get("upper_wedges_vanish") is True
        assert elapsed < 30.0, (n, p, elapsed)
    report("AC5", True, f"overlattice rank >= 2 and upper witness vanishes, worst {worst:.2f}s")


def test_ac6_w_invariants():
    started = time.perf_counter()
    for p in (3, 5):
        verdict = verify_lemma72(1, p)
        assert verdict.result == "Verified", p
        algebra_w = verdict.get("algebra_trace_value")
        field_w = verdict.get("field_trace_value")
        assert tuple(algebra_w.coords) == (Fraction(0), Fraction(p - 1, p))
        assert tuple(field_w.coords) == (Fraction(p - 1, p), Fraction(0))
        assert algebra_w == verdict.get("algebra_trace_closed_form")
        assert field_w == verdict.get("field_trace_closed_form")
        assert verdict.get("conclusion") == "NotSubfield"
    elapsed = time.perf_counter() - started
    ok = elapsed < 1.0
    report("AC6", ok, f"w-invariants (0,(p-1)/p) vs ((p-1)/p,0) for p in 3,5 ({elapsed:.2f}s)")


def test_ac7_trace_and_norm_oracles():
    for p in (2, 3, 5, 7):
        m = FormalElement.symbol(p, "m")
        assert trace_power_oracle(m, p - 1, p) == FormalElement.constant(p, p - 1)
        assert (
            norm_element_oracle(m, FormalElement.one(p), FormalElement.zero(p), p) == m
        )
    for p in (3, 5):
        m = FormalElement.symbol(p, "m")
        for i in range(p - 1):
            assert trace_power_oracle(m, i, p) == FormalElement.zero(p)
    report("AC7", True, "Tr(x^(p-1)) = -1, lower traces vanish, N(x) = rhs")


def test_ac8_two_factor_pipelines():
    for part in (1, 2):
        for p in (3, 5):
            verdict = verify_example73(part, p)
            assert verdict.result == "Verified", (part, p)
            assert verdict.get("left_right_division") == "certified"
            assert verdict.get("tensor_non_division") is True
            assert verdict.get("chain_proves_zero") is True
            assert verdict.get("pair_first_third") == "NoCommonMaximalSubfield"
            assert verdict.get("pair_second_third") == "NoCommonMaximalSubfield"
    report("AC8", True, "two-factor trios verified for parts 1, 2 at p in 3,5")


def test_ac9_determinism_and_negative_controls(tmp_path):
    outs = []
    for tag in ("a", "b", "c"):
        target = tmp_path / f"run-{tag}.json"
        code = cli_main(
            [
                "no-common-splitting", "--n", "3", "--p", "2",
                "--format", "json", "--out", str(target),
            ]
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    flips = []
    for source, old, new in (
        ("chain-shift-ext-p3.scn", "algebra S = [c^-1, d^-1)", "algebra S = [c^-2, d^-1)"),
        ("custom-two-factor-p3.scn", "algebra D = [d^-1, t)", "algebra D = [d^-1, t^3)"),
    ):
        text = (CORPUS / source).read_text()
        assert old in text
        task = [ln.split()[1] for ln in text.splitlines() if ln.startswith("task ")][0]
        baseline = tmp_path / f"base-{source}.json"
        assert cli_main([task, "--scenario", str(CORPUS / source),
                         "--format", "json", "--out", str(baseline)]) == 0
        assert json.loads(baseline.read_text())["result"] == "Verified"
        variant = tmp_path / source
        variant.write_text(text.replace(old, new))
        corrupted = tmp_path / f"corrupt-{source}.json"
        code = cli_main([task, "--scenario", str(variant),
                         "--format", "json", "--out", str(corrupted)])
        result = json.loads(corrupted.read_text())["result"]
        assert code != 0 and result != "Verified", (source, result)
        flips.append(result)
    report("AC9", True, f"byte-stable json, corrupted inputs give {flips}")
