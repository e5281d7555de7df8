#include "lib/spec_gen.hpp"

#include <sstream>

#include "lib/stats.hpp"

namespace perfbench {

namespace {

std::string fig3(Rng& rng, const std::string& name) {
  const int length = rng.range(16, 128);
  const int width = rng.range(8, 24);
  const int p_addr = rng.range(0, length / 2 - 1);
  const int q_addr = rng.range(length / 2, length - 1);
  std::ostringstream os;
  os << "system " << name << ";\n"
     << "variable X   : bits(" << width << ");\n"
     << "variable MEM : array[" << length << "] of bits(" << width << ");\n"
     << "process P {\n"
     << "  variable AD : int(16) = " << p_addr << ";\n"
     << "  wait " << rng.range(1, 4) << ";\n"
     << "  X := " << rng.range(1, 120) << ";\n"
     << "  MEM(AD) := X + " << rng.range(1, 7) << ";\n"
     << "}\n"
     << "process Q {\n"
     << "  variable COUNT : int(16) = " << rng.range(1, 120) << ";\n"
     << "  wait " << rng.range(1, 4) << ";\n"
     << "  MEM(" << q_addr << ") := COUNT;\n"
     << "}\n"
     << "module COMP_P   { process P; }\n"
     << "module COMP_MEM { variable X; variable MEM; }\n"
     << "module COMP_Q   { process Q; }\n"
     << "bus B { channels all; }\n";
  return os.str();
}

std::string dma_stream(Rng& rng, const std::string& name) {
  const int length = rng.range(32, 256);
  const int width = rng.range(8, 16);
  const int count = rng.range(length / 2, length);
  std::ostringstream os;
  os << "system " << name << ";\n"
     << "variable frame  : array[" << length << "] of bits(" << width
     << ");\n"
     << "variable status : bits(8);\n"
     << "variable CHECKSUM : int;\n"
     << "signal GO { _ : 2; }\n"
     << "process DMA_WRITE {\n"
     << "  for i in 0 .. " << count - 1 << " {\n"
     << "    wait " << rng.range(1, 3) << ";\n"
     << "    frame(i) := (i * " << rng.range(3, 61) << " + "
     << rng.range(0, 9) << ") % " << (1 << width) << ";\n"
     << "  }\n"
     << "  status := 1;\n"
     << "  GO <= 1;\n"
     << "}\n"
     << "process CHECK {\n"
     << "  variable V : int;\n"
     << "  wait until GO = 1;\n"
     << "  for i in 0 .. " << count - 1 << " {\n"
     << "    wait " << rng.range(1, 3) << ";\n"
     << "    V := frame(i);\n"
     << "    CHECKSUM := CHECKSUM + V;\n"
     << "  }\n"
     << "  GO <= 2;\n"
     << "}\n"
     << "module CTRL { process DMA_WRITE; process CHECK; variable CHECKSUM; }\n"
     << "module MEMCHIP { variable frame; variable status; }\n"
     << "bus DBUS { channels all; }\n";
  return os.str();
}

std::string flc_kernel(Rng& rng, const std::string& name) {
  const int length = rng.range(32, 192);
  const int width = rng.range(8, 16);
  std::ostringstream os;
  os << "system " << name << ";\n"
     << "variable trru0 : array[" << length << "] of bits(" << width
     << ");\n"
     << "variable trru2 : array[" << length << "] of bits(" << width
     << ");\n"
     << "variable CONV2_OUT : int;\n"
     << "process EVAL_R3 {\n"
     << "  for i in 0 .. " << rng.range(length / 2, length) - 1 << " {\n"
     << "    wait " << rng.range(3, 8) << ";\n"
     << "    trru0(i) := (i * " << rng.range(2, 9) << " + "
     << rng.range(0, 15) << ") % " << (1 << width) << ";\n"
     << "  }\n"
     << "}\n"
     << "process CONV_R2 {\n"
     << "  variable ACC : int;\n"
     << "  for i in 0 .. " << rng.range(length / 2, length) - 1 << " {\n"
     << "    wait " << rng.range(2, 6) << ";\n"
     << "    ACC := ACC + trru2(i);\n"
     << "  }\n"
     << "  CONV2_OUT := ACC;\n"
     << "}\n"
     << "module CHIP1 { process EVAL_R3; process CONV_R2; "
        "variable CONV2_OUT; }\n"
     << "module CHIP2 { variable trru0; variable trru2; }\n"
     << "bus B { channels all; }\n";
  return os.str();
}

}  // namespace

GeneratedSpec generate_spec(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed * 0x100000001b3ull + index);
  const std::string suffix =
      "_s" + std::to_string(seed) + "_" + std::to_string(index);
  switch (rng.range(0, 2)) {
    case 0:
      return {"fig3", fig3(rng, "fig3" + suffix)};
    case 1:
      return {"dma_stream", dma_stream(rng, "dma_stream" + suffix)};
    default:
      return {"flc_kernel", flc_kernel(rng, "flc_kernel" + suffix)};
  }
}

}  // namespace perfbench
