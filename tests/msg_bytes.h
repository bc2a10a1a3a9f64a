// Test helper: a message encoded through its one codec into owned bytes,
// for tests that keep, mutate or re-feed the wire form.
#pragma once

#include "wire/msg_codec.h"

namespace apna::test {

template <class M>
Bytes encoded(const M& msg) {
  wire::MsgWriter w;
  msg.encode(w);
  return w.take();
}

}  // namespace apna::test
