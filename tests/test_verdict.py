from gradedk.verdict import CONSTRUCTIVE, EXHAUSTIVE, SAMPLED, combine


def test_combine_takes_the_weakest_strategy():
    assert combine() == CONSTRUCTIVE
    assert combine(CONSTRUCTIVE, CONSTRUCTIVE) == CONSTRUCTIVE
    assert combine(CONSTRUCTIVE, EXHAUSTIVE) == EXHAUSTIVE
    assert combine(EXHAUSTIVE, SAMPLED, CONSTRUCTIVE) == SAMPLED
