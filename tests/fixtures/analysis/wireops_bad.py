"""REPRO003 bad fixture: a wire handler raising a builtin exception."""


class Dispatcher:
    def _op_ping(self, request):
        if request is None:
            raise ValueError("bad request")  # builtin escapes to the wire
        return {"pong": True}

    def _op_fetch(self, request):
        if not request:
            raise KeyError  # bare builtin class, same problem
        return {}

    def helper(self, request):
        raise ValueError("not a handler: never reaches the wire raw")
