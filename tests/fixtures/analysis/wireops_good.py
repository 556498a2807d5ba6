"""REPRO003 good fixture: wire handlers raise typed errors only."""


class FixtureError(Exception):
    """A typed wire error."""


class Dispatcher:
    def _op_ping(self, request):
        if request is None:
            raise FixtureError("bad request")
        return {"pong": True}

    def _op_fetch(self, request):
        return {}
