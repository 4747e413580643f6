import os

from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci: a fixed example sequence, and the
# reproduction blob of any failure printed, so a failure there replays
# locally under the same profile. Local runs keep the random search.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
