// Fixture: per-Format switches outside the format table, however the
// enumerator is qualified.
namespace shflbw {
namespace runtime {

int Cost(Format f) {
  switch (f) {
    case Format::kDense: return 1;
    case runtime::Format::kCsr: return 2;
    case shflbw::runtime::Format::kBsr: return 3;
    case Arch::kV100: return 4;
    default: return 0;
  }
}

}  // namespace runtime
}  // namespace shflbw
