// Fixture: the event ring is a sanctioned dump sink — its file
// output does not fire the logging rule.
#include <fstream>

void DumpPostmortem(const char* path) {
  std::ofstream os(path);
  os << "{}";
}
