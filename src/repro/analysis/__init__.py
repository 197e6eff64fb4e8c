"""Wafer-level throughput analysis and report tables."""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "ThroughputModel": "throughput",
        "ThroughputReport": "throughput",
        "Table": "tables",
        "DefectSite": "verify",
        "VerificationReport": "verify",
        "verify_patterns": "verify",
    },
)
