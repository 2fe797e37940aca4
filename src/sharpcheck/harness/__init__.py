"""Verification harness: exact identities, the estimate catalog, ladder
drivers, and report serialization."""

from .catalog import ENTRIES, ENTRY_IDS, CatalogEntry, EquationCheck, build_operator
from .identity import IDENTITY_KEYS, IdentityReport, check_instance, exact_identity_suite
from .report import (
    BOUNDED,
    DIVERGING,
    ERROR,
    EXACT_PASS,
    INCONCLUSIVE,
    SCHEMA_VERSION,
    EstimateSpec,
    InequalityReport,
    TermSeries,
    classify_trend,
    empirical_constant,
    overall_verdict,
    report_to_dict,
    suite_to_csv,
    suite_to_json,
)
from .study import refinement_study, resolve_entry, run_estimate_check, run_suite
