//===- util/io.h - EINTR/EAGAIN-safe fd I/O helpers ------------*- C++ -*-===//
///
/// \file
/// The process-boundary code paths — the shard worker pipe drain, the
/// process launcher, and the genprove_serve sockets — all need the same
/// three primitives: a read that retries EINTR, a write that never loses
/// bytes to a short write, and a bounded write that gives up on a stuck
/// peer instead of wedging the caller. Before this header each call site
/// hand-rolled its own loop and not all of them retried EINTR; they now
/// share one audited implementation.
///
/// All functions operate on raw POSIX fds and are safe for both blocking
/// and O_NONBLOCK descriptors (semantics per function below). None of them
/// allocate, so they are usable on near-signal paths.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_UTIL_IO_H
#define GENPROVE_UTIL_IO_H

#include <cstddef>

#include <sys/types.h>

namespace genprove {

/// Ignore SIGPIPE process-wide (idempotent). A peer that disappears mid
/// write must surface as an EPIPE error return, never as a fatal signal —
/// one dead client would otherwise kill the whole server.
void ignoreSigPipe();

/// Set or clear O_NONBLOCK; returns false on fcntl failure.
bool setNonBlocking(int Fd, bool NonBlocking);

/// One ::read that retries EINTR. Returns exactly what ::read would
/// otherwise: >0 bytes, 0 at EOF, or -1 with errno set (EAGAIN/EWOULDBLOCK
/// on a drained non-blocking fd).
ssize_t readChunk(int Fd, void *Buf, size_t Len);

/// Write all \p Len bytes, retrying EINTR and short writes; on a
/// non-blocking fd, polls for writability. False on any real error
/// (including EPIPE from a vanished peer).
bool writeFull(int Fd, const void *Buf, size_t Len);

/// writeFull with a wall-clock budget: polls for writability between
/// attempts and gives up once \p TimeoutSeconds elapse without the kernel
/// accepting every byte. The slow-client containment primitive: one stuck
/// socket must cost the server at most the timeout, never the accept loop.
/// TimeoutSeconds <= 0 means no bound (plain writeFull). Works on both
/// blocking and non-blocking fds (the fd is temporarily switched to
/// non-blocking so a full socket buffer cannot block past the budget).
bool writeFullDeadline(int Fd, const void *Buf, size_t Len,
                       double TimeoutSeconds);

} // namespace genprove

#endif // GENPROVE_UTIL_IO_H
