"""Tests for numeric precisions."""

import pytest

from repro.hardware.datatypes import MASTER_PRECISION, Precision


def test_bytes_per_element_widths():
    assert Precision.FP32.bytes_per_element == 4.0
    assert Precision.FP16.bytes_per_element == 2.0
    assert Precision.BF16.bytes_per_element == 2.0
    assert Precision.FP8.bytes_per_element == 1.0
    assert Precision.FP4.bytes_per_element == 0.5
    assert Precision.INT8.bytes_per_element == 1.0


def test_bits_property():
    assert Precision.FP16.bits == 16
    assert Precision.FP8.bits == 8
    assert Precision.FP4.bits == 4
    assert Precision.FP64.bits == 64
    for precision in Precision:
        assert precision.bits == 8 * precision.bytes_per_element


def test_parse_accepts_enum_and_strings():
    assert Precision.parse(Precision.FP16) is Precision.FP16
    assert Precision.parse("fp16") is Precision.FP16
    assert Precision.parse("FP8") is Precision.FP8
    assert Precision.parse(" bf16 ") is Precision.BF16
    for precision in Precision:
        assert Precision.parse(precision.value) is precision
        assert Precision.parse(precision.name) is precision


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        Precision.parse("fp12")


def test_master_precision_is_fp32():
    assert MASTER_PRECISION is Precision.FP32


def test_every_precision_has_positive_width():
    for precision in Precision:
        assert precision.bytes_per_element > 0
