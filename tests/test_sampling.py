import numpy as np
import pytest

from ctxpoly.sampling import random_noncontextual_simplest_behavior


@pytest.mark.parametrize(
    "margin, max_tries",
    # No try at all, and a margin no behavior meets: every tight functional
    # is at least -3 on a valid table.
    [(0.0, 0), (4.0, 20)],
)
def test_rejection_sampling_gives_up_after_its_tries(margin, max_tries):
    with pytest.raises(RuntimeError, match="^rejection sampling failed to find a noncontextual behavior$"):
        random_noncontextual_simplest_behavior(np.random.default_rng(0), margin=margin, max_tries=max_tries)
