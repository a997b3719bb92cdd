"""The benchmark's percentile rule, self-time arithmetic and error
classification."""

import pytest

from stats import (MIN_BEYOND, beyond, classify_error, longest_wait,
                   percentile_summary, self_time, tail_percentile,
                   union_length)


def test_p99_needs_ten_samples_beyond_it():
    assert beyond(1000, 99.0) == 10
    assert beyond(999, 99.0) == 9
    summary = percentile_summary(float(i) for i in range(1, 1001))
    assert summary["p99"] == 990.0
    assert summary["tail_q"] == 99.0
    short = percentile_summary(float(i) for i in range(1, 1000))
    assert short["p99"] is None
    assert short["tail_q"] == 98.0
    assert short["tail"] == 980.0


def test_small_samples_fall_back_to_a_lower_tail_or_none():
    assert tail_percentile(36) == 60.0
    assert beyond(36, 60.0) >= MIN_BEYOND
    assert tail_percentile(19) is None
    summary = percentile_summary([1.0] * 19)
    assert summary["p50"] is None and summary["tail"] is None
    assert percentile_summary([2.0] * 20)["p50"] == 2.0


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(2.0, 4.0), (6.0, 7.0)]) == 7.0
    # Overlapping (parallel) children count once.
    assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0)]) == 5.0
    # Children are clipped to the parent's interval.
    assert self_time(0.0, 10.0, [(-5.0, 2.0), (9.0, 20.0)]) == 7.0
    assert self_time(5.0, 5.0, [(5.0, 6.0)]) == 0.0
    assert union_length([(0.0, 1.0), (1.0, 2.0)], 0.0, 10.0) == 2.0


class Typed(Exception):
    pass


class SubTyped(Typed):
    pass


def test_error_classification_names_typed_errors_and_reraises_others():
    assert classify_error(SubTyped("x"), (Typed,)) == "SubTyped"
    with pytest.raises(KeyError):
        classify_error(KeyError("bug"), (Typed,))


def test_program_errors_are_typed_and_bugs_are_not():
    from repro.errors import (AdmissionRejectedError, AmbiguousCommitError,
                              TransactionRetryError)
    from repro.sim.network import RpcTimeoutError
    from workloads import typed_errors

    typed = typed_errors()
    assert classify_error(TransactionRetryError("r"), typed) \
        == "TransactionRetryError"
    assert classify_error(AmbiguousCommitError(1), typed) \
        == "AmbiguousCommitError"
    assert classify_error(AdmissionRejectedError("q", "full"), typed) \
        == "AdmissionRejectedError"
    assert classify_error(RpcTimeoutError("t"), typed) == "RpcTimeoutError"
    with pytest.raises(AttributeError):
        classify_error(AttributeError("bug"), typed)


def test_longest_wait_counts_only_requests_due_after_the_start():
    requests = [(5.0, 20.0), (11.0, None), (12.0, 40.0), (13.0, 30.0)]
    assert longest_wait(requests, 10.0) == 20.0
    assert longest_wait([(11.0, None)], 10.0) is None


def test_speed_factor_scales_to_the_nominal_chunk_time():
    from stats import CALIBRATION_MS, calibration_chunk, speed_factor

    nominal = CALIBRATION_MS / 1000.0
    assert speed_factor([nominal] * 3) == pytest.approx(1.0)
    # A machine running at half speed: its seconds count half.
    assert speed_factor([2 * nominal, 2 * nominal, 9.0]) \
        == pytest.approx(0.5)
    assert calibration_chunk(200) > 0.0
