// Instrumentation macro for simulator hot paths.
//
// Every probe site costs one predictable branch on a thread-local pointer
// while tracing is disabled; the event struct is only constructed when a
// trace buffer is installed (TraceScope).
#pragma once

#include "obs/trace.hpp"

/// Usage: REDCACHE_TRACE_EVENT(obs::TraceEvent{.cycle = now, ...});
#define REDCACHE_TRACE_EVENT(...)                                       \
  do {                                                                  \
    if (::redcache::obs::TraceBuffer* trace_buffer_ =                   \
            ::redcache::obs::ActiveTrace()) {                           \
      trace_buffer_->Emit(__VA_ARGS__);                                 \
    }                                                                   \
  } while (0)
