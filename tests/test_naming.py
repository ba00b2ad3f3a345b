"""Identifier validation and display-name rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigkit.naming import display_name, display_property_key, is_identifier


@pytest.mark.parametrize("value", [
    "Pedestrian", "PerspectiveShape", "LiDAR", "x", "Speed2", "Snake_case",
])
def test_valid_identifiers(value):
    assert is_identifier(value)


@pytest.mark.parametrize("value", [
    "", " ", "2Fast", "with space", "hyphen-ated", "dotted.name", "Pedestrian\n", None, 42,
])
def test_invalid_identifiers(value):
    assert not is_identifier(value)


@pytest.mark.parametrize("identifier,expected", [
    ("Pedestrian", "Pedestrian"),
    ("PerspectiveShape", "Perspective shape"),
    ("TemporaryStructure", "Temporary structure"),
    ("SignalTransmission", "Signal transmission"),
    ("LightReceiving", "Light receiving"),
    ("x", "x"),
])
def test_display_name(identifier, expected):
    assert display_name(identifier) == expected


def test_display_property_key_joins_with_slash():
    assert display_property_key(("PerspectiveShape", "Color")) == "Perspective shape/Color"
    assert display_property_key(["Color"]) == "Color"


_camel_words = st.from_regex(r"[A-Z][a-z]{1,8}", fullmatch=True)


@given(st.lists(_camel_words, min_size=1, max_size=4))
def test_display_name_keeps_every_word(words):
    identifier = "".join(words)
    rendered = display_name(identifier)
    assert rendered.split(" ") == [words[0]] + [w.lower() for w in words[1:]]


@given(st.lists(_camel_words, min_size=1, max_size=4))
def test_display_name_only_first_word_capitalized(words):
    rendered = display_name("".join(words))
    tail = rendered.split(" ")[1:]
    assert all(word == word.lower() for word in tail)
