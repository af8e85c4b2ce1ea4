from perfbench.client import LoopResult
from perfbench.serve import PeakRssAt


def test_peak_rss_is_read_once_when_the_count_of_replies_is_reached():
    loop = LoopResult()
    hook = PeakRssAt(loop, replies=3, baseline_mb=0.0)
    for k in range(2):
        loop.done.append(float(k))
        hook(float(k), 0.0)
    assert hook.mb is None
    loop.done.append(2.0)
    hook(2.0, 0.0)
    assert hook.mb > 0
    read = hook.mb
    hook.baseline_mb = -1e6  # a later read would change the figure
    loop.done.append(3.0)
    hook(3.0, 0.0)
    assert hook.mb == read
