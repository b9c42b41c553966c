"""The output pins shared by the README and demo tests."""

import hashlib

import pytest

PIN_ENVIRONMENT = (
    "The pins hold for the environment that made them: Python 3.11.7, "
    "numpy 2.4.6 and numpy's CPU dispatch on an x86-64 host with AVX512, "
    "where x**3 takes SVML (elsewhere it takes libm, whose last bits can "
    "differ). An output that changes on purpose is re-pinned in the same "
    "change: copy the digests above into the test's pins, and list the "
    "old and new digests in CHANGES.md.")


@pytest.fixture
def assert_pinned():
    """A check of outputs {name: str or bytes} against pins {name: the
    first 16 hex digits of the output's SHA-256}."""
    def check(pins: dict, outputs: dict) -> None:
        digests = {name: hashlib.sha256(
            data.encode() if isinstance(data, str) else data).hexdigest()[:16]
            for name, data in outputs.items()}
        assert digests == pins, f"digests {digests}. {PIN_ENVIRONMENT}"
    return check
