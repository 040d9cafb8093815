// Fixture: the format table itself is the one file allowed to decide
// per Format.
namespace shflbw {
namespace runtime {

const char* Name(Format f) {
  switch (f) {
    case Format::kDense: return "dense";
    case runtime::Format::kCsr: return "csr";
    default: return "?";
  }
}

}  // namespace runtime
}  // namespace shflbw
