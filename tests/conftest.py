from hypothesis import settings

# Deterministic, bounded property runs: the suite gives the same result
# every time and stays a few seconds long.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=25, database=None)
settings.load_profile("tier1")
