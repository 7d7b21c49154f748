//! `nas_w`: the battery users actually wait for — seven NAS kernels ×
//! pre-post {100, 1} × five schemes on the paper's process counts. The
//! only workload with 8- and 16-rank worlds, collectives and real kernel
//! arithmetic.

use crate::common::{kernel_key, Rep, Scale, Workload, SCHEMES};
use crate::trace::Tracer;
use crate::wl_pt2pt::probe_worlds;
use ibfabric::FabricParams;
use mpib::{MpiConfig, MpiWorld};
use nasbench::{run_kernel, Kernel, NasClass};
use std::collections::BTreeMap;

pub struct NasW {
    class: NasClass,
    preposts: &'static [u32],
}

impl NasW {
    pub fn new(scale: Scale) -> NasW {
        NasW {
            class: scale.pick(NasClass::W, NasClass::Test),
            preposts: scale.pick(&[100, 1], &[1]),
        }
    }
}

impl Workload for NasW {
    fn probes(&mut self, tr: &mut Tracer, n: usize) -> BTreeMap<String, f64> {
        // Per (nprocs, prepost): how many kernels a rep runs on that world.
        let mut worlds = Vec::new();
        for nprocs in [8usize, 16] {
            let kernels = Kernel::ALL
                .iter()
                .filter(|k| k.paper_procs() == nprocs)
                .count();
            for &prepost in self.preposts {
                worlds.push((nprocs, prepost, kernels));
            }
        }
        probe_worlds(tr, &worlds, n)
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::new();
        let class = self.class;
        for kernel in Kernel::ALL {
            let key = kernel_key(kernel);
            let nprocs = kernel.paper_procs();
            // Identical workloads must agree on the checksum whatever the
            // scheme or pre-post depth.
            let mut checksum: Option<u64> = None;
            for &prepost in self.preposts {
                for scheme in SCHEMES {
                    let what = format!("{}/{}/pp{prepost}", kernel.name(), scheme.label());
                    let (out, ns) = tr.span(
                        "mpib.world_run",
                        || {
                            format!(
                                "nprocs={nprocs} scheme={} prepost={prepost} kernel={key}",
                                scheme.label()
                            )
                        },
                        |_| {
                            MpiWorld::run(
                                nprocs,
                                MpiConfig::scheme(scheme, prepost),
                                FabricParams::mt23108(),
                                async move |mpi| run_kernel(mpi, kernel, class).await,
                            )
                        },
                    );
                    rep.ops += 1;
                    rep.host(&format!("nas.wall.{key}"), ns);
                    let out = match out {
                        Ok(out) => out,
                        Err(e) => {
                            rep.fail_if(true, 1, || format!("{what}: {e}"));
                            continue;
                        }
                    };
                    let bits = out.results[0].checksum.to_bits();
                    let agreed = *checksum.get_or_insert(bits);
                    let ok = out
                        .results
                        .iter()
                        .all(|r| r.verified && r.checksum.to_bits() == agreed)
                        && out.stats.all_ledgers_conserved();
                    rep.fail_if(!ok, 1, || {
                        format!("{what}: not verified, checksum disagrees, or a ledger leaked")
                    });
                    rep.sim_ns += out.end_time.as_nanos();
                    rep.digest.u64(out.end_time.as_nanos());
                    rep.digest.u64(out.events);
                    rep.digest.u64(bits);
                    rep.digest.debug(&out.stats.ranks);
                    rep.fabric_stats(&out.fabric.stats);
                    rep.count("ibsim.events", out.events);
                    rep.count(&format!("nas.events.{key}"), out.events);
                    rep.count(&format!("nas.sim_ns.{key}"), out.end_time.as_nanos());
                    rep.count(
                        &format!("nas.bytes.{key}"),
                        out.fabric.stats.bytes_delivered.get(),
                    );
                }
            }
        }
        rep
    }
}
