"""Configuration encoding and validity-mask tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossflow.config import (
    Configuration,
    InvalidConfigError,
    all_configurations,
    valid_configurations,
)

from oracles import matches_mask

INVALID_MASKS = ("001xxx", "010xxx", "011xxx", "0xxx1x", "xxx0x1", "000000")


def test_most_precise_valid():
    assert Configuration.from_string("111111").is_valid()


def test_all_zero_invalid():
    assert not Configuration.from_string("000000").is_valid()


def test_exactly_26_valid():
    assert len(valid_configurations()) == 26
    assert sum(1 for c in all_configurations() if not c.is_valid()) == 38


def test_validity_complements_mask_union():
    for c in all_configurations():
        enc = c.encode()
        masked = any(matches_mask(enc, m) for m in INVALID_MASKS)
        assert c.is_valid() == (not masked), enc


@pytest.mark.parametrize(
    "encoding", ["010000", "001000", "011111", "000011", "000010", "100001"]
)
def test_known_invalid(encoding):
    cfg = Configuration.from_string(encoding)
    assert not cfg.is_valid()
    with pytest.raises(InvalidConfigError):
        cfg.require_valid()


@pytest.mark.parametrize("encoding", ["100000", "000100", "000101", "101110"])
def test_known_valid(encoding):
    assert Configuration.from_string(encoding).is_valid()


def test_round_trip_and_bit_accessors():
    cfg = Configuration.from_string("101010")
    assert cfg.encode() == "101010"
    assert cfg.static_graph and cfg.flow_sensitivity and cfg.statement_coverage
    assert not cfg.context_sensitivity
    assert not cfg.method_event and not cfg.method_instance_level
    assert cfg.static_bits == (True, False, True)


def test_bad_encoding_rejected():
    with pytest.raises(ValueError):
        Configuration.from_string("11111")
    with pytest.raises(ValueError):
        Configuration.from_string("11111z")


@given(st.lists(st.tuples(*[st.booleans()] * 6)))
def test_configurations_sort_by_encoding(bits):
    configs = [Configuration(*b) for b in bits]
    assert sorted(configs) == sorted(configs, key=Configuration.encode)
