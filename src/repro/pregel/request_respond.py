"""Request-respond helper: Pregel+'s idiom for pull-style communication.

Several PPA-assembler operations need a vertex *v* to ask another
vertex *w* for part of *w*'s state (e.g. list ranking asks the
predecessor for its ``sum`` and ``pred``).  In plain Pregel this takes
two supersteps: a REQUEST superstep in which *v* messages *w*, and a
RESPOND superstep in which *w* answers every requester.  Pregel+
packages the pattern as the "request-respond API" and uses it to
resolve workload skew (many requesters asking one hot vertex are served
by a single respond value).

This module provides small message dataclasses plus a
:class:`RequestRespondMixin` that vertex classes can reuse so that the
two-superstep dance is written once.  The mixin also deduplicates
responses per target — the skew optimisation Pregel+ performs — which
keeps the per-superstep communication of a hot vertex O(number of
distinct requesting workers) in a real system; here it simply reduces
message counts the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from .vertex import ComputeContext, _estimate_size


@dataclass(frozen=True)
class Request:
    """A pull request: ``requester`` asks the recipient for state."""

    requester: int
    tag: Any = None

    def message_size(self) -> int:
        return 9


@dataclass(frozen=True)
class Response:
    """Answer to a :class:`Request`; ``payload`` is the requested state."""

    responder: int
    payload: Any
    tag: Any = None

    def message_size(self) -> int:
        return 9 + _estimate_size(self.payload)


class RequestRespondMixin:
    """Mixin giving vertices ``send_request`` / ``respond_to_requests``.

    Subclasses decide *what* to answer by overriding
    :meth:`request_payload`.
    """

    def send_request(self, ctx: ComputeContext, target_id: int, tag: Any = None) -> None:
        """Ask ``target_id`` for its :meth:`request_payload`."""
        ctx.send(target_id, Request(requester=self.vertex_id, tag=tag))

    def respond_to_requests(self, messages: List[Any], ctx: ComputeContext) -> List[Any]:
        """Answer every :class:`Request` in ``messages``.

        Returns the non-request messages so the caller can process them
        normally.  Duplicate requests from the same requester are
        answered once.
        """
        other_messages: List[Any] = []
        answered: Dict[int, bool] = {}
        for message in messages:
            if isinstance(message, Request):
                if message.requester in answered:
                    continue
                answered[message.requester] = True
                payload = self.request_payload(message.tag)
                ctx.send(
                    message.requester,
                    Response(responder=self.vertex_id, payload=payload, tag=message.tag),
                )
            else:
                other_messages.append(message)
        return other_messages

    def request_payload(self, tag: Any) -> Any:
        """State shipped back to requesters; subclasses override this."""
        raise NotImplementedError("vertices using RequestRespondMixin must define request_payload()")


def split_responses(messages: List[Any]) -> tuple[List[Response], List[Any]]:
    """Partition ``messages`` into responses and everything else."""
    responses: List[Response] = []
    others: List[Any] = []
    for message in messages:
        if isinstance(message, Response):
            responses.append(message)
        else:
            others.append(message)
    return responses, others
