// Must not compile: a switch over a message-kind enum that hides missing
// enumerators behind a default. -Werror=switch-enum names each one.
#include "broker/event.hpp"

using gmmcs::broker::MessageType;

int handled(MessageType t) {
  switch (t) {
    case MessageType::kHello:
      return 1;
    case MessageType::kEvent:
      return 2;
    default:
      return 0;
  }
}
