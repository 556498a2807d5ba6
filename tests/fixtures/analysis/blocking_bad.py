"""REPRO006 bad fixture: handler-reachable waits nobody announced."""

import time


class Proxy:
    def join_fanout(self, futures):
        return [future.result() for future in futures]  # parks unannounced

    def back_off(self, delay):
        time.sleep(delay)  # parks unannounced

    def late_announcement(self, event):
        event.wait(1.0)  # the announcement below comes too late
        before_blocking()

    def nested_does_not_cover(self, event):
        def announce():
            before_blocking()

        announce()
        event.wait(1.0)  # a call inside another def is not this function's


def before_blocking():
    pass
