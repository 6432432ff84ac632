// srp-lint fixture: exception handling inside an SRP_HOT_PATH body, which
// the hotpath-alloc pass must flag (the `try` and the `catch`).  Never
// compiled.
#include <cstdint>
#include <stdexcept>

#define SRP_HOT_PATH

namespace fixture {

int parse(std::uint8_t byte);  // throws std::invalid_argument

class BadRouter {
 public:
  SRP_HOT_PATH bool route(std::uint8_t byte) {
    try {
      port_ = parse(byte);
    } catch (const std::invalid_argument&) {
      return false;
    }
    return true;
  }

  // Unmarked function: exception handling is fine off the data path.
  bool configure(std::uint8_t byte) {
    try {
      port_ = parse(byte);
    } catch (const std::invalid_argument&) {
      return false;
    }
    return true;
  }

 private:
  int port_ = 0;
};

}  // namespace fixture
