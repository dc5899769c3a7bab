"""Payload measurement keeps no memo.

:func:`payload_words` measures a payload as it is at the call: a payload
holding a list is measured again after the list changes, never answered
from an earlier measurement of the same object.
"""

from repro.congest.message import payload_words


def test_unhashable_payloads_measure_without_caching():
    payload = ("tag", [1, 2, 3])
    assert payload_words(payload, 5) == payload_words(("tag", [1, 2, 3]), 5) == 4
    payload[1].append(2**40)
    assert payload_words(payload, 5) == payload_words(("tag", [1, 2, 3, 2**40]), 5) == 13
