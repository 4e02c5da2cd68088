"""The Röjemo/Runciman lag-drag-void-use decomposition [21], which the
paper's drag measurements build on — reproduced as an extension."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import profile_source
from repro.core.integrals import integral_bytes2
from tests.core.test_analyzer import make_record
from repro.core.trailer import ObjectRecord


def make_full_record(created, first, last, collected, size=16, handle=1):
    return ObjectRecord(
        handle=handle,
        type_name="Object",
        size=size,
        creation_time=created,
        first_use_time=first,
        last_use_time=last,
        collection_time=collected,
        alloc_site=0,
        site_label="A.m:1",
        site_kind="new",
        site_is_library=False,
        nested_alloc=("A.m:1",),
        last_use_frame=None,
        last_use_chain=None,
        excluded=False,
        survived_to_end=False,
    )


def test_four_phases_partition_the_lifetime():
    r = make_full_record(created=100, first=250, last=600, collected=1000)
    assert r.lag_time == 150
    assert r.use_time == 350
    assert r.drag_time == 400
    assert r.lag_time + r.use_time + r.drag_time == r.lifetime


def test_void_object_has_no_lag_or_use():
    r = make_full_record(created=100, first=0, last=0, collected=1000)
    assert r.is_void and r.never_used
    assert r.lag_time == 0
    assert r.use_time == 0
    assert r.drag_time == r.lifetime == 900


def test_integrals_decompose():
    records = [
        make_full_record(created=0, first=100, last=300, collected=500, handle=1),
        make_full_record(created=50, first=0, last=0, collected=400, handle=2),
        make_full_record(created=10, first=10, last=480, collected=500, handle=3),
    ]
    lag = integral_bytes2(records, "lag")
    use = integral_bytes2(records, "use")
    drag = integral_bytes2(records, "drag")
    void = integral_bytes2(records, "void")
    reach = integral_bytes2(records, "reachable")
    # void is the never-used slice of drag; lag+use+drag covers the rest
    assert lag + use + drag == reach
    assert void <= drag
    assert void == 16 * 350  # record 2's whole lifetime


@settings(max_examples=150, deadline=None)
@given(
    created=st.integers(min_value=1, max_value=10 ** 6),
    lag=st.integers(min_value=0, max_value=10 ** 5),
    use=st.integers(min_value=0, max_value=10 ** 5),
    drag=st.integers(min_value=0, max_value=10 ** 5),
    size=st.integers(min_value=8, max_value=10 ** 4),
)
def test_phase_partition_property(created, lag, use, drag, size):
    first = created + lag
    last = first + use
    collected = last + drag
    r = make_full_record(created, first, last, collected, size=size)
    assert r.lag_time + r.use_time + r.drag_time == r.lifetime
    assert r.lag_time >= 0 and r.use_time >= 0 and r.drag_time >= 0


def test_profiler_records_first_use():
    source = """
    class Main {
        public static void main(String[] args) {
            Object o = new Object();
            pad();
            o.hashCode();   // first use
            pad();
            o.hashCode();   // last use
            pad();
            o = null;
            pad();
        }
        static void pad() {
            for (int i = 0; i < 20; i = i + 1) { char[] junk = new char[512]; }
        }
    }
    """
    result = profile_source(source, "Main", interval_bytes=4 * 1024)
    record = [r for r in result.records if r.type_name == "Object"][0]
    assert record.creation_time < record.first_use_time < record.last_use_time
    pad = 20 * 1040
    assert record.lag_time >= pad * 0.9
    assert record.use_time >= pad * 0.9
    assert record.lag_time + record.use_time == record.in_use_time


def test_first_use_roundtrips_through_log(tmp_path):
    from repro.core.logfile import read_log
    from repro.stream.codec import V2LogWriter

    record = make_full_record(created=5, first=9, last=20, collected=44)
    path = tmp_path / "lag.log"
    with V2LogWriter(path) as writer:
        writer.write_record(record)
    loaded = read_log(path).records[0]
    assert loaded.first_use_time == 9
    assert loaded.lag_time == 4


def test_legacy_log_without_first_use_still_loads():
    data = make_record().to_dict()
    del data["first_use"]
    loaded = ObjectRecord.from_dict(data)
    assert loaded.first_use_time == 0
