// The Figure 7 cognitive-radio OFDM demodulator, end to end: real bits
// are modulated onto OFDM symbols, flow through the TPDF graph in the
// simulator (cyclic-prefix removal, FFT and QAM demapping run as actor
// behaviours on actual samples), the control actor selects QPSK or QAM
// at run time, and the sink verifies the decoded bits.
//
// Data-plane convention: a firing transfers `rate` tokens; the block
// payload (a sample or bit vector) rides on the first token of the
// block, the rest are counting tokens.  This keeps the simulation
// token-accurate while moving real data.
//
// Usage: ofdm_demod [beta] [N] [L] [M]   (defaults 4, 512, 16, 4)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/ofdm.hpp"
#include "csdf/buffer.hpp"
#include "sim/simulator.hpp"
#include "support/prng.hpp"

using namespace tpdf;
using apps::Cplx;

namespace {

using Samples = std::shared_ptr<const std::vector<Cplx>>;
using Bits = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Emits `rate` tokens on `port`, the first carrying `payload`.
template <class Payload>
void emitBlock(sim::FiringContext& ctx, const std::string& port,
               std::int64_t rate, Payload payload) {
  ctx.emit(port, sim::Token{0, std::move(payload)});
  for (std::int64_t i = 1; i < rate; ++i) {
    ctx.emit(port, sim::Token{});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t beta = argc > 1 ? std::atoll(argv[1]) : 4;
  const std::int64_t N = argc > 2 ? std::atoll(argv[2]) : 512;
  const std::int64_t L = argc > 3 ? std::atoll(argv[3]) : 16;
  const std::int64_t M = argc > 4 ? std::atoll(argv[4]) : 4;
  const auto constellation =
      M == 4 ? apps::Constellation::Qam16 : apps::Constellation::Qpsk;

  apps::OfdmConfig config;
  config.symbolLength = static_cast<int>(N);
  config.cyclicPrefix = static_cast<int>(L);
  config.constellation = constellation;
  config.vectorization = static_cast<int>(beta);

  std::printf("OFDM demodulator: beta=%lld N=%lld L=%lld M=%lld (%s)\n",
              static_cast<long long>(beta), static_cast<long long>(N),
              static_cast<long long>(L), static_cast<long long>(M),
              M == 4 ? "QAM" : "QPSK");

  const core::TpdfGraph model = apps::ofdmTpdfGraph();
  const symbolic::Environment env{
      {"b", beta}, {"N", N}, {"L", L}, {"M", M}};
  sim::Simulator simulator(model, env);

  // Transmitter side, folded into SRC: random payload bits, QAM-mapped,
  // IFFT'd, cyclic-prefixed — "a data source that generates random
  // values to simulate a sampler" (Section IV-B).
  support::Prng rng(2026);
  std::vector<std::uint8_t> sent(
      static_cast<std::size_t>(beta) *
      static_cast<std::size_t>(config.bitsPerOfdmSymbol()));
  for (auto& b : sent) b = rng.chance(0.5) ? 1 : 0;

  simulator.setBehaviour("SRC", [&](sim::FiringContext& ctx) {
    auto samples = std::make_shared<const std::vector<Cplx>>(
        apps::ofdmModulate(sent, config));
    emitBlock(ctx, "o", beta * (N + L), Samples(samples));
    ctx.emit("sig", sim::Token{M, {}});
  });

  simulator.setBehaviour("CON", [&](sim::FiringContext& ctx) {
    // The trigger token's tag carries M; translate to mode index
    // 0 = QPSK, 1 = QAM for both controlled kernels.
    const std::int64_t mode = ctx.inputs("i").at(0).tag == 4 ? 1 : 0;
    ctx.emit("toDUP", sim::Token{mode, {}});
    ctx.emit("toTRAN", sim::Token{mode, {}});
  });

  simulator.setBehaviour("RCP", [&](sim::FiringContext& ctx) {
    const auto samples =
        std::any_cast<Samples>(ctx.inputs("i").at(0).payload);
    auto stripped = std::make_shared<std::vector<Cplx>>();
    stripped->reserve(static_cast<std::size_t>(beta * N));
    for (std::int64_t s = 0; s < beta; ++s) {
      const std::size_t off = static_cast<std::size_t>(s * (N + L));
      stripped->insert(stripped->end(),
                       samples->begin() + static_cast<std::ptrdiff_t>(
                                              off + static_cast<std::size_t>(L)),
                       samples->begin() +
                           static_cast<std::ptrdiff_t>(off +
                                                       static_cast<std::size_t>(N + L)));
    }
    emitBlock(ctx, "o", beta * N, Samples(std::move(stripped)));
  });

  simulator.setBehaviour("FFT", [&](sim::FiringContext& ctx) {
    const auto samples =
        std::any_cast<Samples>(ctx.inputs("i").at(0).payload);
    auto spectrum = std::make_shared<std::vector<Cplx>>(*samples);
    for (std::int64_t s = 0; s < beta; ++s) {
      std::vector<Cplx> symbol(
          spectrum->begin() + static_cast<std::ptrdiff_t>(s * N),
          spectrum->begin() + static_cast<std::ptrdiff_t>((s + 1) * N));
      apps::fft(symbol);
      std::copy(symbol.begin(), symbol.end(),
                spectrum->begin() + static_cast<std::ptrdiff_t>(s * N));
    }
    emitBlock(ctx, "o", beta * N, Samples(std::move(spectrum)));
  });

  simulator.setBehaviour("DUP", [&](sim::FiringContext& ctx) {
    const sim::Token& in = ctx.inputs("i").at(0);
    const char* port = ctx.modeIndex() == 0 ? "toQPSK" : "toQAM";
    emitBlock(ctx, port, beta * N,
              std::any_cast<Samples>(in.payload));
  });

  auto demapper = [&](apps::Constellation c, const char* inPort,
                      std::int64_t outRate) {
    return [&, c, inPort, outRate](sim::FiringContext& ctx) {
      const auto spectrum =
          std::any_cast<Samples>(ctx.inputs(inPort).at(0).payload);
      auto bits = std::make_shared<const std::vector<std::uint8_t>>(
          apps::qamDemodulate(*spectrum, c));
      emitBlock(ctx, "o", outRate, Bits(bits));
    };
  };
  simulator.setBehaviour(
      "QPSK", demapper(apps::Constellation::Qpsk, "i", 2 * beta * N));
  simulator.setBehaviour(
      "QAM", demapper(apps::Constellation::Qam16, "i", 4 * beta * N));

  simulator.setBehaviour("TRAN", [&](sim::FiringContext& ctx) {
    const char* port = ctx.modeIndex() == 0 ? "iQPSK" : "iQAM";
    emitBlock(ctx, "o", beta * M * N,
              std::any_cast<Bits>(ctx.inputs(port).at(0).payload));
  });

  std::size_t bitErrors = 0;
  std::size_t bitsChecked = 0;
  simulator.setBehaviour("SNK", [&](sim::FiringContext& ctx) {
    const auto bits = std::any_cast<Bits>(ctx.inputs("i").at(0).payload);
    bitsChecked = bits->size();
    for (std::size_t i = 0; i < bits->size() && i < sent.size(); ++i) {
      if ((*bits)[i] != sent[i]) ++bitErrors;
    }
  });

  const sim::SimResult result = simulator.run();
  if (!result.ok) {
    std::printf("simulation failed: %s\n", result.diagnostic.c_str());
    return 1;
  }

  std::printf("decoded %zu bits, %zu errors (BER %.2e) — %s\n",
              bitsChecked, bitErrors,
              bitsChecked ? static_cast<double>(bitErrors) /
                                static_cast<double>(bitsChecked)
                          : 0.0,
              bitErrors == 0 ? "perfect recovery" : "ERRORS");
  // The unselected demapper branch never fires at all — this is the
  // dynamic topology change TPDF buys (and what Figure 8 charges CSDF
  // for): the branch is simply absent from the live topology.
  const graph::Graph& g = model.graph();
  std::printf("firings: QPSK=%lld QAM=%lld (unselected branch removed "
              "from the live topology)\n",
              static_cast<long long>(
                  result.firings[g.findActor("QPSK")->index()]),
              static_cast<long long>(
                  result.firings[g.findActor("QAM")->index()]));

  // Compare the dynamic footprint with the static Figure 8 analysis.
  const graph::Graph effective = apps::ofdmTpdfEffective(constellation);
  const csdf::BufferReport buffers = csdf::minimumBuffers(
      effective, csdf::computeRepetitionVector(effective),
      symbolic::Environment{{"b", beta}, {"N", N}, {"L", L}});
  std::int64_t dynamicTotal = 0;
  for (const auto& ch : result.channels) dynamicTotal += ch.maxOccupancy;
  std::printf("buffer demand: dynamic (full graph) %lld tokens, static "
              "effective-topology bound %lld tokens\n",
              static_cast<long long>(dynamicTotal),
              static_cast<long long>(buffers.ok ? buffers.total() : -1));
  return 0;
}
