"""Exact verification of symbol algebra constructions over Laurent towers.

The engine builds degree-p symbol algebras over iterated Laurent series
fields, computes their value groups in exact rational arithmetic, and
machine-checks division certificates, trace-value obstructions, and
witness-carrying rewrite chains.  Every verdict comes with a structured
certificate tree; nothing is asserted without a checked derivation.
"""

from __future__ import annotations

from .division import (
    Certificate,
    algebra_value_data,
    chain_division,
    independence_division,
    morandi_step,
    symbol_division,
    trace_profile,
    trace_zero_value_classes,
)
from .errors import EngineError, ScenarioError, UnsupportedConfiguration
from .lattices import Lattice, ValueVector, enumerate_overlattices
from .report import Report, emit_report, render_json, render_text
from .scenario import Scenario, load_scenario, parse_scenario
from .symbols import (
    RewriteChain,
    RewriteStep,
    SymbolSum,
    SymbolTerm,
    check_rewrite_chain,
    normal_form,
    symbol,
)
from .towers import (
    FieldTower,
    FormalElement,
    GroundField,
    adjoin,
    norm_element_oracle,
    trace_power_oracle,
)
from .verify import (
    Verdict,
    build_family,
    family_size_formula,
    shared_value_window,
    verify_char_not_p,
    verify_count_identities,
    verify_example73,
    verify_lemma72,
    verify_no_common_splitting,
    verify_prop71,
    verify_shift_lemma,
    verify_value_groups,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "EngineError",
    "FieldTower",
    "FormalElement",
    "GroundField",
    "Lattice",
    "Report",
    "RewriteChain",
    "RewriteStep",
    "Scenario",
    "ScenarioError",
    "SymbolSum",
    "SymbolTerm",
    "UnsupportedConfiguration",
    "ValueVector",
    "Verdict",
    "adjoin",
    "algebra_value_data",
    "build_family",
    "chain_division",
    "check_rewrite_chain",
    "emit_report",
    "enumerate_overlattices",
    "family_size_formula",
    "independence_division",
    "load_scenario",
    "morandi_step",
    "norm_element_oracle",
    "normal_form",
    "parse_scenario",
    "render_json",
    "render_text",
    "shared_value_window",
    "symbol",
    "symbol_division",
    "trace_power_oracle",
    "trace_profile",
    "trace_zero_value_classes",
    "verify_char_not_p",
    "verify_count_identities",
    "verify_example73",
    "verify_lemma72",
    "verify_no_common_splitting",
    "verify_prop71",
    "verify_shift_lemma",
    "verify_value_groups",
]
