// tgsim-tgasm — assembles .tgp text into the .bin image executed by the TG
// processor (paper Sec. 5: "an assembler is used to convert the symbolic TG
// program into a binary image").
//
//   tgsim_tgasm program.tgp [--out=program.bin] [--print]
#include <cstdio>

#include "cli.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{"tgsim_tgasm",
                       "assemble a .tgp program into a TG binary image"};
    set.positional("FILE.tgp", 1, 1)
        .text("out", "FILE.bin", "",
              "output image (empty: the input path with .tgp replaced by "
              ".bin)")
        .flag("print", "also print the image words");
    return set;
}

int run(const cli::OptionSet& o) {
    const std::string& in_path = o.positionals()[0];
    const tg::TgProgram prog = cli::load_file(in_path, [](const auto& p) {
        return tg::program_from_text(cli::read_text_file(p));
    });
    const auto image = tg::assemble(prog);
    std::string out_path = o.get("out");
    if (out_path.empty()) {
        out_path = in_path;
        const auto dot = out_path.rfind(".tgp");
        if (dot != std::string::npos) out_path.erase(dot);
        out_path += ".bin";
    }
    cli::save_image(image, out_path);
    std::printf("%s: %zu instructions -> %zu words -> %s\n", in_path.c_str(),
                prog.instrs.size(), image.size(), out_path.c_str());
    if (o.has("print")) {
        for (std::size_t i = 0; i < image.size(); ++i)
            std::printf("%04zx: 0x%08X\n", i, image[i]);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return cli::run(options(), argc, argv, run); }
