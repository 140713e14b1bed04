"""REPRO801 fixture: getattr() probes on engines."""


def shards_of(engine):
    return getattr(engine, "num_shards", 1)  # bare engine


def standby_lag(self):
    return getattr(self.engine, "lag", 0)  # attribute named engine


def epoch_of(standby_engine):
    return getattr(standby_engine, "epoch", None)  # *_engine name
