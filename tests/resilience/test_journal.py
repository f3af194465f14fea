"""The journal under the work queue and the sweep checkpoint: a crash
mid-append leaves a torn final line, which replay skips and reopening
the file cuts off instead of gluing the next line onto it."""

import pickle

import pytest

from repro.energy.events import EnergyEvents
from repro.resilience.journal import Journal, pack_record, unpack_record


def test_append_after_torn_tail_is_replayed(tmp_path):
    path = tmp_path / "j.journal"
    first = Journal(path)
    first.append({"op": "enqueue", "qkey": "a", "wire": {"k": 1}})
    first.close()
    with open(path, "ab") as fh:            # crash mid-append
        fh.write(b'{"op": "complete", "qk')
    reopened = Journal(path)
    assert [r["qkey"] for r in reopened.records()] == ["a"]
    reopened.append({"op": "complete", "qkey": "a"})
    reopened.close()
    assert Journal(path).records() == [
        {"op": "enqueue", "qkey": "a", "wire": {"k": 1}},
        {"op": "complete", "qkey": "a"}]
    assert path.read_bytes().endswith(b'{"op":"complete","qkey":"a"}\n')


def test_a_file_with_no_whole_line_is_cut_to_nothing(tmp_path):
    path = tmp_path / "j.journal"
    path.write_bytes(b"\x80\x04 pickle frames of an older checkpoint")
    journal = Journal(path)
    assert journal.records() == []
    journal.append({"op": "complete", "qkey": "b"})
    journal.close()
    assert Journal(path).records() == [{"op": "complete", "qkey": "b"}]



def test_a_whole_record_without_its_newline_is_torn(tmp_path):
    """A crash between a line's last byte and its newline leaves valid
    JSON that opening the file cuts off; replay must skip it too, or a
    transition honoured once is gone after the next restart."""
    path = tmp_path / "j.journal"
    path.write_bytes(b'{"op":"enqueue","qkey":"a","wire":{}}\n'
                     b'{"op":"complete","qkey":"a"}')
    journal = Journal(path)
    assert [r["op"] for r in journal.records()] == ["enqueue"]
    journal.open()
    journal.close()
    assert path.read_bytes() == b'{"op":"enqueue","qkey":"a","wire":{}}\n'
    assert [r["op"] for r in Journal(path).records()] == ["enqueue"]


def test_open_raises_for_an_unwritable_path(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    journal = Journal(blocker / "j.journal")
    with pytest.raises(OSError):
        journal.open()
    assert journal.append({"op": "complete", "qkey": "a"}) is False


#: set when unpickling called _trip: unpack_record never may
_TRIPPED = []


def _trip():
    _TRIPPED.append(True)


class _Hostile:
    def __reduce__(self):
        return (_trip, ())


def test_unpack_record_resolves_only_record_classes():
    with pytest.raises(pickle.UnpicklingError):
        unpack_record(pack_record(_Hostile()))
    with pytest.raises(pickle.UnpicklingError):
        unpack_record(pack_record({"nested": [_Hostile()]}))
    assert _TRIPPED == []
    events = EnergyEvents()
    assert unpack_record(pack_record({"events": events})) == {
        "events": events}
