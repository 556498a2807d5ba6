"""REPRO006 good fixture: every wait is announced (or provably not a leader's)."""

import time


class Proxy:
    def join_fanout(self, futures):
        before_blocking()
        return [future.result() for future in futures]

    def back_off(self, delay, attempts):
        for _attempt in range(attempts):
            before_blocking()
            time.sleep(delay)

    def idle(self, condition):
        # repro: allow[REPRO006] only an idle follower ever sleeps here
        condition.wait()


def before_blocking():
    pass
